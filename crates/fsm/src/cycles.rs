//! Cycle analysis of STGs.
//!
//! The paper (§7.3) argues key diversity from the number of cycles in the
//! added STG: each cycle multiplies the set of distinct unlocking sequences,
//! and the authors count "more than 40 cycles" in their 12-FF added STG
//! using an approximate DAG-contraction method. This module provides that
//! approximate count and an exact bounded enumeration for cross-checking on
//! small graphs.

use crate::{StateId, Stg};
use std::collections::HashSet;

/// Builds the plain state adjacency (ignoring edge labels, deduplicated,
/// self-loops dropped — a self-loop is a trivial cycle counted separately).
fn adjacency(stg: &Stg) -> Vec<Vec<usize>> {
    let n = stg.state_count();
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for t in stg.transitions() {
        if t.from != t.to {
            adj[t.from.index()].insert(t.to.index());
        }
    }
    adj.into_iter()
        .map(|s| {
            // Sorted, not hash order: the contraction count depends on DFS
            // visit order, and a per-process HashSet order would make it
            // (and results/analysis.txt) differ from run to run.
            let mut v: Vec<usize> = s.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Number of self-loop states.
pub fn self_loop_count(stg: &Stg) -> usize {
    let mut states: HashSet<usize> = HashSet::new();
    for t in stg.transitions() {
        if t.from == t.to {
            states.insert(t.from.index());
        }
    }
    states.len()
}

/// The paper's approximate cycle count: repeatedly find a cycle by DFS,
/// contract it to a single node, and repeat until the graph is acyclic.
/// Each contraction counts one cycle. This lower-bounds the true number of
/// simple cycles (it equals the graph's cycle-space dimension contribution
/// found by this strategy) and is cheap on large graphs.
pub fn count_cycles_contraction(stg: &Stg) -> usize {
    let mut adj = adjacency(stg);
    let mut count = self_loop_count(stg);
    // Union-find over contracted nodes.
    let n = adj.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    loop {
        // DFS to find one cycle among representatives.
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        let mut found: Option<Vec<usize>> = None;
        'roots: for root in 0..n {
            if find(&mut parent, root) != root || color[root] != 0 {
                continue;
            }
            // Iterative DFS with an index-based stack of (node, edge cursor).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            color[root] = 1;
            while let Some(top) = stack.len().checked_sub(1) {
                let (u, ei) = stack[top];
                if ei >= adj[u].len() {
                    color[u] = 2;
                    stack.pop();
                    continue;
                }
                stack[top].1 += 1;
                let v = find(&mut parent, adj[u][ei]);
                if v == u {
                    continue; // contracted self-edge
                }
                if color[v] == 1 {
                    // Found a cycle: the gray path suffix from v to u.
                    let pos = stack
                        .iter()
                        .position(|&(x, _)| x == v)
                        .expect("gray node must be on the stack");
                    found = Some(stack[pos..].iter().map(|&(x, _)| x).collect());
                    break 'roots;
                }
                if color[v] == 0 {
                    color[v] = 1;
                    stack.push((v, 0));
                }
            }
        }
        match found {
            None => break,
            Some(cycle) => {
                count += 1;
                // Contract the cycle into its first node.
                let target = cycle[0];
                for &c in &cycle {
                    parent[c] = target;
                }
                parent[target] = target;
                let mut merged_edges: HashSet<usize> = HashSet::new();
                for &c in &cycle {
                    let edges = adj[c].clone();
                    for raw in edges {
                        let v = find(&mut parent, raw);
                        if v != target {
                            merged_edges.insert(v);
                        }
                    }
                }
                // Sorted for the same reason as `adjacency`: keep later
                // DFS passes (and the reported count) run-independent.
                let mut merged: Vec<usize> = merged_edges.into_iter().collect();
                merged.sort_unstable();
                adj[target] = merged;
                // Edges of other nodes into the contracted cycle are
                // redirected lazily through `find` at traversal time.
            }
        }
    }
    count
}

/// Exact count of simple cycles up to `limit` (then stops and returns
/// `limit`). DFS-based enumeration: only feasible on small graphs — used to
/// validate [`count_cycles_contraction`] in tests and to report the §7.3
/// key-diversity number on the added STG modules.
pub fn count_simple_cycles_bounded(stg: &Stg, limit: usize) -> usize {
    let adj = adjacency(stg);
    let n = adj.len();
    let mut count = self_loop_count(stg);
    if count >= limit {
        return limit;
    }
    // Enumerate cycles whose minimum node is `start` (Johnson-flavoured
    // restriction avoids duplicates).
    let mut path: Vec<usize> = Vec::new();
    let mut on_path = vec![false; n];
    fn dfs(
        u: usize,
        start: usize,
        adj: &[Vec<usize>],
        path: &mut Vec<usize>,
        on_path: &mut [bool],
        count: &mut usize,
        limit: usize,
    ) {
        if *count >= limit {
            return;
        }
        path.push(u);
        on_path[u] = true;
        for &v in &adj[u] {
            if v == start {
                *count += 1;
                if *count >= limit {
                    break;
                }
            } else if v > start && !on_path[v] {
                dfs(v, start, adj, path, on_path, count, limit);
            }
        }
        path.pop();
        on_path[u] = false;
    }
    for start in 0..n {
        dfs(start, start, &adj, &mut path, &mut on_path, &mut count, limit);
        if count >= limit {
            return limit;
        }
    }
    count
}

/// Whether every state in `states` has a path to `target` in the STG.
///
/// Test oracle: `hwm-metering`'s `module3.rs` test `exit_reachable_from_everywhere`
/// checks every added-STG module's exit against it.
pub fn all_reach(stg: &Stg, states: &[StateId], target: StateId) -> bool {
    // Reverse reachability from target.
    let n = stg.state_count();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in stg.transitions() {
        rev[t.to.index()].push(t.from.index());
    }
    let mut seen = vec![false; n];
    let mut stack = vec![target.index()];
    seen[target.index()] = true;
    while let Some(u) = stack.pop() {
        for &p in &rev[u] {
            if !seen[p] {
                seen[p] = true;
                stack.push(p);
            }
        }
    }
    states.iter().all(|s| seen[s.index()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_has_one_cycle_plus_self_loops() {
        let stg = Stg::ring_counter(6, 1);
        // 6 hold self-loops + the big ring.
        assert_eq!(self_loop_count(&stg), 6);
        assert_eq!(count_cycles_contraction(&stg), 7);
        assert_eq!(count_simple_cycles_bounded(&stg, 100), 7);
    }

    #[test]
    fn two_nested_cycles() {
        let mut stg = Stg::new(1, 1);
        for i in 0..4 {
            stg.add_state(format!("s{i}"));
        }
        let s = |i: usize| StateId::from_index(i);
        // 0→1→2→3→0 and shortcut 1→0.
        stg.add_transition_str(s(0), "-", s(1), "0").unwrap();
        stg.add_transition_str(s(1), "1", s(2), "0").unwrap();
        stg.add_transition_str(s(2), "-", s(3), "0").unwrap();
        stg.add_transition_str(s(3), "-", s(0), "0").unwrap();
        stg.add_transition_str(s(1), "0", s(0), "0").unwrap();
        assert_eq!(count_simple_cycles_bounded(&stg, 100), 2);
        // Contraction finds at least one, at most the exact count.
        let approx = count_cycles_contraction(&stg);
        assert!((1..=2).contains(&approx));
    }

    #[test]
    fn dag_has_no_cycles() {
        let mut stg = Stg::new(1, 1);
        for i in 0..5 {
            stg.add_state(format!("s{i}"));
        }
        for i in 0..4usize {
            stg.add_transition_str(
                StateId::from_index(i),
                "-",
                StateId::from_index(i + 1),
                "0",
            )
            .unwrap();
        }
        assert_eq!(count_cycles_contraction(&stg), 0);
        assert_eq!(count_simple_cycles_bounded(&stg, 10), 0);
    }

    #[test]
    fn bounded_stops_at_limit() {
        // Complete digraph on 6 nodes has lots of cycles.
        let mut stg = Stg::new(3, 1);
        for i in 0..6 {
            stg.add_state(format!("s{i}"));
        }
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    stg.add_transition_str(
                        StateId::from_index(i),
                        "---",
                        StateId::from_index(j),
                        "0",
                    )
                    .unwrap();
                }
            }
        }
        assert_eq!(count_simple_cycles_bounded(&stg, 40), 40);
    }

    #[test]
    fn reachability_to_target() {
        let stg = Stg::ring_counter(5, 1);
        let all: Vec<StateId> = (0..5).map(StateId::from_index).collect();
        assert!(all_reach(&stg, &all, StateId::from_index(0)));
        let mut dag = Stg::new(1, 1);
        let a = dag.add_state("a");
        let b = dag.add_state("b");
        dag.add_transition_str(a, "-", b, "0").unwrap();
        assert!(!all_reach(&dag, &[a, b], a));
    }
}
