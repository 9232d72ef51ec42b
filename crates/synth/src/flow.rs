//! The STG → mapped netlist synthesis flow.
//!
//! Mirrors the SIS pipeline the paper drives from its C program: state
//! assignment, two-level minimization of the next-state and output
//! functions against the unused-code don't-care set, and technology mapping
//! into the generic cell library with structural sharing of product terms.

use crate::SynthError;
use hwm_fsm::{Encoding, EncodingStrategy, StateId, Stg};
use hwm_logic::{espresso, Bits, Cover, Cube, Tri};
use hwm_netlist::{CellKind, CellLibrary, DesignStats, NetId, Netlist, NetlistBuilder};
use std::collections::HashMap;

/// Options controlling the synthesis flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthOptions {
    /// State-encoding strategy.
    pub encoding: EncodingStrategy,
    /// Minimum number of state flip-flops (extra bits become don't-care
    /// states).
    pub min_state_bits: usize,
    /// Whether unspecified (state, input) entries may be used as don't-cares
    /// by the minimizer. When `false` they synthesize as "hold state,
    /// outputs 0", exactly matching [`Stg::step_or_hold`].
    pub use_unspecified_as_dc: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            encoding: EncodingStrategy::Binary,
            min_state_bits: 0,
            use_unspecified_as_dc: false,
        }
    }
}

/// Output of the synthesis flow.
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The mapped netlist. Primary inputs come first in STG input order;
    /// flip-flops are in state-bit order.
    pub netlist: Netlist,
    /// The state encoding used.
    pub encoding: Encoding,
    /// Cost report under the library the flow was given.
    pub stats: DesignStats,
    /// Literal count of the minimized two-level form (the classic SIS
    /// quality metric, used by the module-search in the metering crate).
    pub sop_literals: usize,
}

/// Synthesizes a deterministic STG into a mapped netlist.
///
/// The resulting netlist has one primary input per STG input bit, one
/// primary output per STG output bit, and `max(⌈log₂ m⌉, min_state_bits)`
/// flip-flops initialized to the reset state's code.
///
/// # Errors
///
/// * [`SynthError::EmptyMachine`] for an STG with no states;
/// * [`SynthError::Nondeterministic`] when transitions conflict;
/// * [`SynthError::Encoding`] when state encoding fails.
pub fn synthesize(
    stg: &Stg,
    lib: &CellLibrary,
    options: &SynthOptions,
) -> Result<SynthResult, SynthError> {
    synth_impl(stg, lib, options, false)
}

/// Synthesizes only the transition/output logic of the STG, with a
/// combinational interface: primary inputs are `s0..s{k-1}` (the state
/// code) followed by the STG inputs; primary outputs are the next-state
/// bits `ns0..ns{k-1}` followed by the STG outputs. No flip-flops are
/// created — callers splice the block into a larger sequential design (the
/// BFSM hardware builder does exactly this).
///
/// # Errors
///
/// As [`synthesize`].
pub fn synthesize_combinational(
    stg: &Stg,
    lib: &CellLibrary,
    options: &SynthOptions,
) -> Result<SynthResult, SynthError> {
    synth_impl(stg, lib, options, true)
}

fn synth_impl(
    stg: &Stg,
    lib: &CellLibrary,
    options: &SynthOptions,
    combinational: bool,
) -> Result<SynthResult, SynthError> {
    let _span = hwm_trace::span("synth.flow");
    if stg.state_count() == 0 {
        return Err(SynthError::EmptyMachine);
    }
    if let Some(s) = stg.nondeterministic_state() {
        return Err(SynthError::Nondeterministic { state: s.index() });
    }
    let encoding = Encoding::assign(stg, options.encoding, options.min_state_bits)?;
    let k = encoding.bits();
    let b = stg.num_inputs();
    let width = k + b; // variables: state bits then input bits
    let n_out = stg.num_outputs();

    // Build ON/DC covers for the k next-state functions and n_out outputs.
    let mut ns_on: Vec<Cover> = (0..k).map(|_| Cover::new(width)).collect();
    let mut out_on: Vec<Cover> = (0..n_out).map(|_| Cover::new(width)).collect();
    let mut out_dc: Vec<Cover> = (0..n_out).map(|_| Cover::new(width)).collect();

    // Specified-region cover per state (used to derive the unspecified DC).
    let mut specified = Cover::new(width);

    for t in stg.transitions() {
        let cube = state_input_cube(&encoding, t.from, &t.input, width, k);
        // Subtract already-specified overlap? Insertion-order priority means
        // an overlapping later transition must not contribute conflicting
        // minterms. Determinism guarantees overlaps agree, so including both
        // is sound.
        specified.push(cube.clone());
        let to_code = encoding.code(t.to);
        for (i, ns) in ns_on.iter_mut().enumerate() {
            if (to_code >> i) & 1 == 1 {
                ns.push(cube.clone());
            }
        }
        for (j, tri) in t.output.tris().enumerate() {
            match tri {
                Some(Tri::One) => out_on[j].push(cube.clone()),
                Some(Tri::DontCare) => out_dc[j].push(cube.clone()),
                _ => {}
            }
        }
    }

    // Unused-code don't-cares: complement of the used-state codes over the
    // state variables (inputs free).
    let mut used_codes = Cover::new(width);
    for s in 0..stg.state_count() {
        let mut c = Cube::full(width);
        set_state_literals(&mut c, encoding.code(StateId::from_index(s)), k);
        used_codes.push(c);
    }
    let unused_dc = used_codes.complement();

    // Unspecified (state, input) region.
    let unspecified = if options.use_unspecified_as_dc {
        specified.union(&unused_dc).complement()
    } else {
        Cover::new(width)
    };
    // When unspecified entries must hold the state, add them to the ON-sets
    // of the next-state bits that are 1 in the current state's code.
    let mut hold_cubes: Vec<(Cube, u64)> = Vec::new();
    if !options.use_unspecified_as_dc {
        for s in 0..stg.state_count() {
            let sid = StateId::from_index(s);
            // Region of this state not covered by its transitions.
            let mut spec_s = Cover::new(b);
            for t in stg.transitions_from(sid) {
                spec_s.push(t.input.clone());
            }
            let missing = spec_s.complement();
            for m in missing.iter() {
                let cube = state_input_cube_from_input_cube(&encoding, sid, m, width, k);
                hold_cubes.push((cube, encoding.code(sid)));
            }
        }
    }
    for (cube, code) in &hold_cubes {
        for (i, ns) in ns_on.iter_mut().enumerate() {
            if (code >> i) & 1 == 1 {
                ns.push(cube.clone());
            }
        }
    }

    let dc_common = unused_dc.union(&unspecified);

    // Minimize every function.
    let mut minimized: Vec<Cover> = Vec::with_capacity(k + n_out);
    {
        let _span = hwm_trace::span("synth.minimize");
        for on in ns_on.iter() {
            minimized.push(espresso::minimize(on, &dc_common));
        }
        for (j, on) in out_on.iter().enumerate() {
            let dc = dc_common.union(&out_dc[j]);
            minimized.push(espresso::minimize(on, &dc));
        }
        hwm_trace::counter("functions_minimized", (k + n_out) as u64);
        hwm_trace::counter(
            "cubes_out",
            minimized.iter().map(|c| c.cube_count() as u64).sum(),
        );
    }
    let sop_literals: usize = minimized.iter().map(Cover::literal_count).sum();

    // Technology mapping with shared product terms.
    let _map_span = hwm_trace::span("synth.map");
    let mut builder = NetlistBuilder::new(stg.name());
    let (ff_q, pi): (Vec<NetId>, Vec<NetId>) = if combinational {
        let state: Vec<NetId> = (0..k).map(|i| builder.input(format!("s{i}"))).collect();
        let inputs: Vec<NetId> = (0..b).map(|i| builder.input(format!("x{i}"))).collect();
        (state, inputs)
    } else {
        let inputs: Vec<NetId> = (0..b).map(|i| builder.input(format!("x{i}"))).collect();
        let state: Vec<NetId> = (0..k).map(|i| builder.net(format!("s{i}"))).collect();
        (state, inputs)
    };
    let reset_code = encoding.code(stg.reset_state());

    let mut mapper = Mapper {
        builder: &mut builder,
        inverted: HashMap::new(),
        product_terms: HashMap::new(),
        vars: {
            let mut v = ff_q.clone();
            v.extend(&pi);
            v
        },
    };

    let mut function_nets: Vec<NetId> = Vec::with_capacity(k + n_out);
    for cover in &minimized {
        function_nets.push(mapper.map_cover(cover));
    }
    if combinational {
        for (i, &net) in function_nets.iter().take(k).enumerate() {
            builder.output(format!("ns{i}"), net);
        }
    } else {
        for (i, &q) in ff_q.iter().enumerate() {
            builder.flip_flop_onto(function_nets[i], q, (reset_code >> i) & 1 == 1);
        }
    }
    for j in 0..n_out {
        builder.output(format!("y{j}"), function_nets[k + j]);
    }
    let netlist = builder.finish()?;
    hwm_trace::counter("gates_mapped", netlist.gates().len() as u64);
    let stats = netlist.stats(lib);
    Ok(SynthResult {
        netlist,
        encoding,
        stats,
        sop_literals,
    })
}

/// Cube over (state ++ input) variables fixing the state code and copying an
/// input cube.
fn state_input_cube(encoding: &Encoding, s: StateId, input: &Cube, width: usize, k: usize) -> Cube {
    let mut c = Cube::full(width);
    set_state_literals(&mut c, encoding.code(s), k);
    for (v, t) in input.tris().enumerate() {
        if let Some(t) = t {
            c.set(k + v, t);
        }
    }
    c
}

fn state_input_cube_from_input_cube(
    encoding: &Encoding,
    s: StateId,
    input: &Cube,
    width: usize,
    k: usize,
) -> Cube {
    state_input_cube(encoding, s, input, width, k)
}

fn set_state_literals(c: &mut Cube, code: u64, k: usize) {
    for i in 0..k {
        c.set(i, if (code >> i) & 1 == 1 { Tri::One } else { Tri::Zero });
    }
}

struct Mapper<'a> {
    builder: &'a mut NetlistBuilder,
    inverted: HashMap<NetId, NetId>,
    product_terms: HashMap<String, NetId>,
    vars: Vec<NetId>,
}

impl Mapper<'_> {
    fn inverted(&mut self, net: NetId) -> NetId {
        if let Some(&n) = self.inverted.get(&net) {
            return n;
        }
        let n = self.builder.gate(CellKind::Inv, &[net]);
        self.inverted.insert(net, n);
        n
    }

    /// Balanced AND/OR tree with fan-in 2–4.
    fn tree(&mut self, kind2: fn(u8) -> CellKind, mut nets: Vec<NetId>) -> NetId {
        assert!(!nets.is_empty());
        while nets.len() > 1 {
            let mut next = Vec::with_capacity(nets.len().div_ceil(4));
            for chunk in nets.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.builder.gate(kind2(chunk.len() as u8), chunk));
                }
            }
            nets = next;
        }
        nets[0]
    }

    fn map_cube(&mut self, cube: &Cube) -> NetId {
        let key = cube.to_string();
        if let Some(&n) = self.product_terms.get(&key) {
            return n;
        }
        let mut literals = Vec::new();
        for (v, t) in cube.tris().enumerate() {
            match t {
                Some(Tri::One) => literals.push(self.vars[v]),
                Some(Tri::Zero) => {
                    let var = self.vars[v];
                    literals.push(self.inverted(var));
                }
                _ => {}
            }
        }
        let net = match literals.len() {
            0 => self.builder.gate(CellKind::Const1, &[]),
            1 => literals[0],
            _ => self.tree(CellKind::And, literals),
        };
        self.product_terms.insert(key, net);
        net
    }

    fn map_cover(&mut self, cover: &Cover) -> NetId {
        if cover.is_empty() {
            return self.builder.gate(CellKind::Const0, &[]);
        }
        let terms: Vec<NetId> = cover.iter().map(|c| self.map_cube(c)).collect();
        if terms.len() == 1 {
            terms[0]
        } else {
            self.tree(CellKind::Or, terms)
        }
    }
}

/// Simulation-based check that a synthesized netlist implements its STG:
/// runs `steps` random input vectors from reset on both models and compares
/// outputs and state codes. Exact for complete deterministic machines.
///
/// Test oracle: `tests/hardware_consistency.rs`'s
/// `synthesized_fsm_matches_simulation_across_encodings` and
/// `tests/corpus_lockdown.rs` check synthesis against it;
/// `examples/synthesis_flow.rs` also calls it.
pub fn verify_against_stg(
    result: &SynthResult,
    stg: &Stg,
    steps: usize,
    seed: u64,
) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let b = stg.num_inputs();
    let k = result.encoding.bits();
    let mut hw_state: Bits = result
        .netlist
        .flip_flops()
        .iter()
        .map(|ff| ff.init)
        .collect();
    let mut stg_state = stg.reset_state();
    for step in 0..steps {
        let input: Bits = (0..b).map(|_| rng.random_bool(0.5)).collect();
        let (po, next_hw) = result.netlist.eval(&input, &hw_state);
        let (next_stg, out_stg) = stg.step_or_hold(stg_state, &input);
        if po != out_stg {
            return Err(format!(
                "output mismatch at step {step}: hw={po}, stg={out_stg}"
            ));
        }
        let expect_code = result.encoding.code(next_stg);
        let got_code = (0..k).fold(0u64, |acc, i| acc | ((next_hw.get(i) as u64) << i));
        if got_code != expect_code {
            return Err(format!(
                "state mismatch at step {step}: hw code {got_code:#x}, stg code {expect_code:#x}"
            ));
        }
        hw_state = next_hw;
        stg_state = next_stg;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> CellLibrary {
        CellLibrary::generic()
    }

    #[test]
    fn ring_counter_synthesizes_and_verifies() {
        let stg = Stg::ring_counter(5, 3);
        let r = synthesize(&stg, &lib(), &SynthOptions::default()).unwrap();
        assert_eq!(r.netlist.flip_flops().len(), 3);
        assert_eq!(r.netlist.inputs().len(), 1);
        assert_eq!(r.netlist.outputs().len(), 3);
        verify_against_stg(&r, &stg, 300, 1).unwrap();
    }

    #[test]
    fn kiss_example_synthesizes_and_verifies() {
        let text = "\
.i 2
.o 2
.r a
00 a a 00
01 a b 01
10 a c 10
11 a a 11
-- b c 01
0- c a 10
1- c c 00
.e
";
        let stg = hwm_fsm::kiss::parse(text).unwrap();
        assert!(stg.is_complete());
        let r = synthesize(&stg, &lib(), &SynthOptions::default()).unwrap();
        verify_against_stg(&r, &stg, 500, 2).unwrap();
    }

    #[test]
    fn incomplete_machine_holds_state() {
        // One state, a transition only on input 1. On input 0 the hardware
        // must hold, matching step_or_hold.
        let mut stg = Stg::new(1, 1);
        let a = stg.add_state("a");
        let c = stg.add_state("b");
        stg.add_transition_str(a, "1", c, "1").unwrap();
        stg.add_transition_str(c, "1", a, "0").unwrap();
        stg.set_reset(a);
        let r = synthesize(&stg, &lib(), &SynthOptions::default()).unwrap();
        verify_against_stg(&r, &stg, 200, 3).unwrap();
    }

    #[test]
    fn random_stgs_verify() {
        for seed in 0..5 {
            let stg = hwm_fsm::random_stg(12, 3, 2, 3, seed);
            let r = synthesize(&stg, &lib(), &SynthOptions::default())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            verify_against_stg(&r, &stg, 400, seed).unwrap();
        }
    }

    #[test]
    fn obfuscated_encoding_verifies() {
        let stg = hwm_fsm::random_stg(10, 2, 2, 2, 77);
        let opts = SynthOptions {
            encoding: EncodingStrategy::RandomObfuscated { seed: 4 },
            min_state_bits: 6,
            ..SynthOptions::default()
        };
        let r = synthesize(&stg, &lib(), &opts).unwrap();
        assert_eq!(r.netlist.flip_flops().len(), 6);
        verify_against_stg(&r, &stg, 400, 5).unwrap();
    }

    #[test]
    fn dc_filling_reduces_cost() {
        // With unspecified entries as DC the minimizer must do no worse.
        let mut stg = Stg::new(2, 1);
        let a = stg.add_state("a");
        let c = stg.add_state("b");
        stg.add_transition_str(a, "11", c, "1").unwrap();
        stg.add_transition_str(c, "00", a, "0").unwrap();
        stg.set_reset(a);
        let strict = synthesize(&stg, &lib(), &SynthOptions::default()).unwrap();
        let relaxed = synthesize(
            &stg,
            &lib(),
            &SynthOptions {
                use_unspecified_as_dc: true,
                ..SynthOptions::default()
            },
        )
        .unwrap();
        assert!(relaxed.sop_literals <= strict.sop_literals);
    }

    #[test]
    fn nondeterministic_rejected() {
        let mut stg = Stg::new(1, 1);
        let a = stg.add_state("a");
        let c = stg.add_state("b");
        stg.add_transition_str(a, "1", c, "0").unwrap();
        stg.add_transition_str(a, "-", a, "1").unwrap();
        assert!(matches!(
            synthesize(&stg, &lib(), &SynthOptions::default()),
            Err(SynthError::Nondeterministic { .. })
        ));
    }

    #[test]
    fn empty_rejected() {
        let stg = Stg::new(1, 1);
        assert!(matches!(
            synthesize(&stg, &lib(), &SynthOptions::default()),
            Err(SynthError::EmptyMachine)
        ));
    }

    #[test]
    fn shared_product_terms_reduce_gates() {
        // Two outputs with the identical function share the AND terms.
        let mut stg = Stg::new(2, 2);
        let a = stg.add_state("a");
        stg.add_transition_str(a, "11", a, "11").unwrap();
        stg.add_transition_str(a, "0-", a, "00").unwrap();
        stg.add_transition_str(a, "10", a, "00").unwrap();
        stg.set_reset(a);
        let r = synthesize(&stg, &lib(), &SynthOptions::default()).unwrap();
        // The AND(2) of the two inputs should exist once, not twice.
        let and_count = r
            .netlist
            .gates()
            .iter()
            .filter(|g| matches!(g.kind, CellKind::And(_)))
            .count();
        assert!(and_count <= 1, "expected shared product term, got {and_count} ANDs");
    }
}
