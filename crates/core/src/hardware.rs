//! Gate-level realization of the BFSM additions and the overhead report
//! of Tables 1, 2 and 4 (the bench harness merges each lock with each
//! benchmark circuit and measures the result).
//!
//! [`added_netlist`] synthesizes the complete lock circuitry — per-module
//! transition logic (via the espresso flow), the carry/enable chain, the
//! all-exit detector and unlock latch, black-hole trigger detectors and trap
//! latch, trapdoor matcher, remote-disable (kill) matcher, SFFSM salt XORs
//! and dummy obfuscation flip-flops — into one mapped netlist. The locked-
//! mode behaviour of this netlist is *cycle-exact* against [`Bfsm::step`]
//! (verified in tests), so the cost numbers are those of a functional lock,
//! not of a placeholder.
//!
//! One modelling note: the netlist's flip-flops hold the *raw* composed
//! code; the scan-visible scramble of [`crate::Obfuscation`] models the
//! obfuscated state assignment that the paper obtains for free from SIS's
//! state encoding (an encoding choice changes neither FF count nor, to
//! first order, logic cost).

use crate::bfsm::Bfsm;
use crate::MeteringError;
use hwm_fsm::EncodingStrategy;
use hwm_logic::Tri;
use hwm_netlist::{CellKind, CellLibrary, DesignStats, NetId, Netlist, NetlistBuilder};
use hwm_synth::flow::{synthesize_combinational, SynthOptions};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Area/delay/power overheads of boosting one design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    /// The original circuit's cost.
    pub base: DesignStats,
    /// The boosted (original + lock circuitry) cost.
    pub boosted: DesignStats,
}

impl OverheadReport {
    /// Fractional area overhead (the paper's Table 1 "%" column).
    pub fn area(&self) -> f64 {
        self.base.overhead(&self.boosted, |s| s.area)
    }

    /// Fractional delay overhead (Table 2).
    pub fn delay(&self) -> f64 {
        self.base.overhead(&self.boosted, |s| s.delay)
    }

    /// Fractional power overhead (Table 2).
    pub fn power(&self) -> f64 {
        self.base.overhead(&self.boosted, |s| s.power)
    }
}

struct GateCtx<'a> {
    b: &'a mut NetlistBuilder,
    inverted: HashMap<NetId, NetId>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl<'a> GateCtx<'a> {
    fn new(b: &'a mut NetlistBuilder) -> Self {
        GateCtx {
            b,
            inverted: HashMap::new(),
            const0: None,
            const1: None,
        }
    }

    fn not(&mut self, n: NetId) -> NetId {
        if let Some(&i) = self.inverted.get(&n) {
            return i;
        }
        let i = self.b.gate(CellKind::Inv, &[n]);
        self.inverted.insert(n, i);
        i
    }

    fn const0(&mut self) -> NetId {
        if let Some(n) = self.const0 {
            return n;
        }
        let n = self.b.gate(CellKind::Const0, &[]);
        self.const0 = Some(n);
        n
    }

    fn const1(&mut self) -> NetId {
        if let Some(n) = self.const1 {
            return n;
        }
        let n = self.b.gate(CellKind::Const1, &[]);
        self.const1 = Some(n);
        n
    }

    fn tree(&mut self, kind: fn(u8) -> CellKind, mut nets: Vec<NetId>) -> NetId {
        if nets.is_empty() {
            return self.const1();
        }
        while nets.len() > 1 {
            let mut next = Vec::with_capacity(nets.len().div_ceil(4));
            for chunk in nets.chunks(4) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    next.push(self.b.gate(kind(chunk.len() as u8), chunk));
                }
            }
            nets = next;
        }
        nets[0]
    }

    fn and(&mut self, nets: Vec<NetId>) -> NetId {
        match nets.len() {
            0 => self.const1(),
            1 => nets[0],
            _ => self.tree(CellKind::And, nets),
        }
    }

    fn or(&mut self, nets: Vec<NetId>) -> NetId {
        match nets.len() {
            0 => self.const0(),
            1 => nets[0],
            _ => self.tree(CellKind::Or, nets),
        }
    }

    fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        self.b.gate(CellKind::Xor2, &[a, b])
    }

    fn mux(&mut self, sel: NetId, when0: NetId, when1: NetId) -> NetId {
        self.b.gate(CellKind::Mux2, &[sel, when0, when1])
    }

    /// AND of the literals selecting `value` on a 3-bit state vector.
    fn state_match(&mut self, qs: &[NetId; 3], value: u8) -> NetId {
        let mut lits = Vec::with_capacity(3);
        for (j, &q) in qs.iter().enumerate() {
            if (value >> j) & 1 == 1 {
                lits.push(q);
            } else {
                lits.push(self.not(q));
            }
        }
        self.and(lits)
    }

    /// AND of the literals of an input cube over the `x` nets.
    fn cube_match(&mut self, cube: &hwm_logic::Cube, xs: &[NetId]) -> NetId {
        let mut lits = Vec::new();
        for (v, t) in cube.tris().enumerate() {
            match t {
                Some(Tri::One) => lits.push(xs[v]),
                Some(Tri::Zero) => {
                    let n = self.not(xs[v]);
                    lits.push(n);
                }
                _ => {}
            }
        }
        self.and(lits)
    }

    /// AND of the literals matching an exact input value.
    fn value_match(&mut self, value: u64, xs: &[NetId]) -> NetId {
        let mut lits = Vec::with_capacity(xs.len());
        for (v, &x) in xs.iter().enumerate() {
            if (value >> v) & 1 == 1 {
                lits.push(x);
            } else {
                lits.push(self.not(x));
            }
        }
        self.and(lits)
    }
}

/// Synthesizes the complete lock circuitry of a BFSM into a mapped netlist.
///
/// Interface: primary inputs `x0..x{b-1}` (shared with the design's primary
/// inputs) and `g0..` (driven by the RUB group cells); primary outputs
/// `unlock`, `trapped` and `all_exit` (observability taps). Flip-flop
/// order: trap + position + kill-chain bits (when black holes exist and
/// remote disable is provisioned), the unlock latch, module state bits,
/// trapdoor-progress bits, and the dummy obfuscation flip-flops.
///
/// # Errors
///
/// Propagates synthesis failures of the module blocks.
pub fn added_netlist(bfsm: &Bfsm, lib: &CellLibrary) -> Result<Netlist, MeteringError> {
    let _span = hwm_trace::span("metering.added_netlist");
    let added = bfsm.added();
    let b = added.input_bits();
    let q = added.module_count();
    let gb = bfsm.group_bits();
    let has_holes = !bfsm.black_holes().is_empty();

    // Synthesize the per-module combinational blocks first (own builders).
    let mut blocks = Vec::with_capacity(q);
    for m in added.modules() {
        let block = synthesize_combinational(
            &m.to_stg(),
            lib,
            &SynthOptions {
                encoding: EncodingStrategy::Binary,
                min_state_bits: 3,
                use_unspecified_as_dc: false,
            },
        )?;
        blocks.push(block.netlist);
    }

    let mut builder = NetlistBuilder::new(format!("lock_{}ff", added.state_bits()));
    let xs: Vec<NetId> = (0..b).map(|i| builder.input(format!("x{i}"))).collect();
    let gs: Vec<NetId> = (0..gb).map(|i| builder.input(format!("g{i}"))).collect();

    // Flip-flop Q nets, created up front so the combinational logic can
    // reference them.
    let mq: Vec<[NetId; 3]> = (0..q)
        .map(|i| {
            [
                builder.net(format!("m{i}_q0")),
                builder.net(format!("m{i}_q1")),
                builder.net(format!("m{i}_q2")),
            ]
        })
        .collect();
    let trap_q = has_holes.then(|| builder.net("trap_q"));
    let pos_q = has_holes.then(|| builder.net("trap_pos_q"));
    let unlock_q = builder.net("unlock_q");

    let mut ctx = GateCtx::new(&mut builder);

    // --- module instances ------------------------------------------------
    // enable_0 gates all global stall conditions; computed after triggers,
    // so instantiate blocks with a placeholder enable chain derived below.
    // To keep construction single-pass, compute trigger/exit logic from FF
    // Q nets first (they do not depend on the blocks).

    // Triggers (from FF state + inputs only).
    let mut trigger_any = None;
    if has_holes {
        let mut fired = Vec::new();
        for hole in bfsm.black_holes() {
            for t in &hole.triggers {
                let sm = ctx.state_match(&mq[t.module], t.module_state);
                let im = ctx.cube_match(&t.input, &xs);
                let a = ctx.and(vec![sm, im]);
                fired.push(a);
            }
        }
        trigger_any = Some(ctx.or(fired));
    }

    // all_exit = AND over per-module exit matches (direct from FF bits),
    // and the gated unlock condition: all-exit AND the secret gate symbol
    // on the low input bits.
    let exit_matches: Vec<NetId> = (0..q)
        .map(|i| ctx.state_match(&mq[i], added.modules()[i].exit()))
        .collect();
    let all_exit = ctx.and(exit_matches.clone());
    let gate_bits = crate::bfsm::UNLOCK_GATE_BITS.min(b);
    let mut fire_terms = vec![all_exit];
    for (j, &x) in xs.iter().enumerate().take(gate_bits) {
        if (bfsm.unlock_symbol() >> j) & 1 == 1 {
            fire_terms.push(x);
        } else {
            fire_terms.push(ctx.not(x));
        }
    }
    let unlock_fire = ctx.and(fire_terms);

    // Global run gate: the machine freezes only when the unlock actually
    // fires (exit + gate); at the exit with a wrong symbol it walks on,
    // exactly like the behavioural model.
    let mut run_terms = vec![ctx.not(unlock_fire), ctx.not(unlock_q)];
    if let Some(tq) = trap_q {
        run_terms.push(ctx.not(tq));
    }
    if let Some(trig) = trigger_any {
        run_terms.push(ctx.not(trig));
    }
    let enable0 = ctx.and(run_terms);

    // Carry chain.
    let mut enables = Vec::with_capacity(q);
    enables.push(enable0);
    for i in 1..q {
        let e = ctx.and(vec![enables[i - 1], exit_matches[i - 1]]);
        enables.push(e);
    }

    // Instantiate the blocks now that enables exist, with two wrappers on
    // the state-input side, in step order:
    //
    // 1. **cross-link transpositions** — conditional swaps on the raw state
    //    bits, fired by (previous module's state, input cube), gated by the
    //    global run condition;
    // 2. **SFFSM conjugation** — the salt XORs wrapping the block
    //    (next = f(s ⊕ g) ⊕ g); the hold path is untouched because
    //    q ⊕ g ⊕ g = q, so no enable gating is needed.
    let mut final_ns: Vec<[NetId; 3]> = Vec::with_capacity(q);
    for i in 0..q {
        let mut state_in = [mq[i][0], mq[i][1], mq[i][2]];
        for l in added.links().iter().filter(|l| l.module == i) {
            let prev_m = ctx.state_match(&mq[i - 1], l.requires_prev_at);
            let in_m = ctx.cube_match(&l.input, &xs);
            let fired = ctx.and(vec![prev_m, in_m, enable0]);
            // Conditional transposition: s == a → b, s == b → a. The two
            // matchers read the same pre-swap bits, and cannot both fire.
            let sa = ctx.state_match(&state_in, l.a);
            let sb = ctx.state_match(&state_in, l.b);
            let swap_a = ctx.and(vec![fired, sa]);
            let swap_b = ctx.and(vec![fired, sb]);
            for (j, bit) in state_in.iter_mut().enumerate() {
                let b_bit = if (l.b >> j) & 1 == 1 {
                    ctx.const1()
                } else {
                    ctx.const0()
                };
                let a_bit = if (l.a >> j) & 1 == 1 {
                    ctx.const1()
                } else {
                    ctx.const0()
                };
                let after_a = ctx.mux(swap_a, *bit, b_bit);
                *bit = ctx.mux(swap_b, after_a, a_bit);
            }
        }
        for (j, &g) in gs.iter().enumerate().take(3) {
            state_in[j] = ctx.xor(state_in[j], g);
        }
        let mut inputs = vec![state_in[0], state_in[1], state_in[2]];
        inputs.extend(&xs);
        inputs.push(enables[i]);
        let ports = ctx.b.instantiate(&blocks[i], &inputs, &format!("u{i}_"));
        let mut ns = [ports.outputs[0], ports.outputs[1], ports.outputs[2]];
        for (j, &g) in gs.iter().enumerate().take(3) {
            ns[j] = ctx.xor(ns[j], g);
        }
        final_ns.push(ns);
        // ports.outputs[3] is the block's own carry tap; the enable chain
        // uses the equivalent state_match nets computed before instantiation.
    }

    // --- latches ----------------------------------------------------------
    // Trap latch (+ position + trapdoor + kill matcher).
    if has_holes {
        let trap_q = trap_q.expect("trap FF exists");
        let pos_q = pos_q.expect("pos FF exists");
        let trig = trigger_any.expect("triggers exist");
        let ne = ctx.not(unlock_fire);
        let nu = ctx.not(unlock_q);
        let nt = ctx.not(trap_q);
        let trigger_eff = ctx.and(vec![trig, ne, nu, nt]);

        // Kill matcher (only when remote disable is provisioned): a chain
        // of cascaded value comparators driven while unlocked, one stage per
        // kill-sequence symbol.
        let mut kill_ffs: Vec<(NetId, NetId)> = Vec::new();
        let mut kill_fire = ctx.const0();
        if bfsm.remote_disable_enabled() {
            let kill = bfsm.kill_sequence().to_vec();
            let mut prev_stage: Option<NetId> = None;
            for (step, &sym) in kill.iter().enumerate() {
                let m = ctx.value_match(sym, &xs);
                let terms = match prev_stage {
                    None => vec![unlock_q, m],
                    Some(p) => vec![unlock_q, p, m],
                };
                let stage = ctx.and(terms);
                if step + 1 == kill.len() {
                    kill_fire = stage;
                } else {
                    let qn = ctx.b.net(format!("kill{step}_q"));
                    kill_ffs.push((stage, qn));
                    prev_stage = Some(qn);
                }
            }
        }

        // Trapdoor escape chain.
        let mut escape = None;
        let mut td_ffs: Vec<(NetId, NetId)> = Vec::new();
        if let Some(seq) = bfsm.black_holes()[0].trapdoor.clone() {
            let mut prev: Option<NetId> = None;
            for (step, &sym) in seq.iter().enumerate() {
                let m = ctx.value_match(sym, &xs);
                let terms = match prev {
                    None => vec![trap_q, m],
                    Some(p) => vec![trap_q, p, m],
                };
                let stage = ctx.and(terms);
                if step + 1 == seq.len() {
                    escape = Some(stage);
                } else {
                    let qn = ctx.b.net(format!("td{step}_q"));
                    td_ffs.push((stage, qn));
                    prev = Some(qn);
                }
            }
        }

        let mut trap_d = ctx.or(vec![trap_q, trigger_eff, kill_fire]);
        if let Some(esc) = escape {
            let nesc = ctx.not(esc);
            trap_d = ctx.and(vec![trap_d, nesc]);
        }
        let npos = ctx.not(pos_q);
        let pos_d = ctx.and(vec![trap_q, npos]);

        ctx.b.flip_flop_onto(trap_d, trap_q, false);
        ctx.b.flip_flop_onto(pos_d, pos_q, false);
        for (d, qn) in kill_ffs {
            ctx.b.flip_flop_onto(d, qn, false);
        }
        for (d, qn) in td_ffs {
            ctx.b.flip_flop_onto(d, qn, false);
        }
    }

    // Unlock latch, set by the gated fire condition.
    let mut unlock_terms = vec![unlock_fire];
    if let Some(tq) = trap_q {
        unlock_terms.push(ctx.not(tq));
    }
    let set = ctx.and(unlock_terms);
    let unlock_d = ctx.or(vec![unlock_q, set]);
    ctx.b.flip_flop_onto(unlock_d, unlock_q, false);

    // Module state flip-flops.
    for i in 0..q {
        for j in 0..3 {
            ctx.b.flip_flop_onto(final_ns[i][j], mq[i][j], false);
        }
    }

    // Dummy obfuscation flip-flops: toggle with the added-state activity.
    let n_dummy = bfsm.obfuscation().dummy_ffs();
    for j in 0..n_dummy {
        let tap = mq[j % q][j % 3];
        let dq = ctx.b.net(format!("dummy{j}_q"));
        let dd = ctx.xor(tap, dq);
        ctx.b.flip_flop_onto(dd, dq, false);
    }

    builder.output("unlock", unlock_q);
    if let Some(tq) = trap_q {
        builder.output("trapped", tq);
    }
    builder.output("all_exit", all_exit);
    Ok(builder.finish()?)
}

impl From<hwm_netlist::NetlistError> for MeteringError {
    fn from(e: hwm_netlist::NetlistError) -> Self {
        MeteringError::Synthesis(hwm_synth::SynthError::Netlist(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::added::AddedStg;
    use crate::bfsm::BfsmState;
    use hwm_logic::Bits;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn small_bfsm(holes: usize, group_bits: usize, seed: u64) -> Bfsm {
        let original = hwm_fsm::Stg::ring_counter(5, 2);
        let added = AddedStg::build_verified(2, 3, 2, 2, seed, 1 << group_bits).unwrap();
        Bfsm::assemble(&original, &added, holes, 0, group_bits, 2, true, seed).unwrap()
    }

    /// Layout of the hardware FF vector for the tests.
    fn hw_state(
        bfsm: &Bfsm,
        nl: &Netlist,
        composed: u32,
        trap: bool,
        unlock: bool,
    ) -> Bits {
        let q = bfsm.added().module_count();
        let has_holes = !bfsm.black_holes().is_empty();
        let mut bits = Bits::zeros(nl.flip_flops().len());
        // FF order: trap, pos, kill-chain (if holes), unlock, module bits,
        // dummies — matching the flip_flop_onto calls in added_netlist.
        let mut idx = 0;
        if has_holes {
            bits.set(idx, trap); // trap; pos and kill chain stay 0
            idx += 2;
            if bfsm.remote_disable_enabled() {
                idx += bfsm.kill_sequence().len() - 1;
            }
        }
        bits.set(idx, unlock);
        idx += 1;
        for i in 0..q {
            for j in 0..3 {
                bits.set(idx, (composed >> (3 * i + j)) & 1 == 1);
                idx += 1;
            }
        }
        bits
    }

    fn decode_hw(bfsm: &Bfsm, nl: &Netlist, bits: &Bits) -> (u32, bool, bool) {
        let q = bfsm.added().module_count();
        let has_holes = !bfsm.black_holes().is_empty();
        let mut idx = 0;
        let trap = if has_holes {
            let t = bits.get(0);
            idx += 2;
            if bfsm.remote_disable_enabled() {
                idx += bfsm.kill_sequence().len() - 1;
            }
            t
        } else {
            false
        };
        let unlock = bits.get(idx);
        idx += 1;
        let mut composed = 0u32;
        for i in 0..(3 * q) {
            if bits.get(idx + i) {
                composed |= 1 << i;
            }
        }
        let _ = nl;
        (composed, trap, unlock)
    }

    #[test]
    fn lock_netlist_matches_bfsm_semantics() {
        let lib = CellLibrary::generic();
        for (holes, gb, seed) in [(0usize, 0usize, 31u64), (1, 1, 32), (1, 0, 33)] {
            let bfsm = small_bfsm(holes, gb, seed);
            let nl = added_netlist(&bfsm, &lib).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..400 {
                let composed = rng.random_range(0..bfsm.added().state_count() as u32);
                let group = if gb > 0 { rng.random_range(0..(1u8 << gb)) } else { 0 };
                let v = rng.random_range(0..8u64);
                // Hardware step.
                let state = hw_state(&bfsm, &nl, composed, false, false);
                let mut pi = Bits::zeros(nl.inputs().len());
                for i in 0..3 {
                    pi.set(i, (v >> i) & 1 == 1);
                }
                for i in 0..gb {
                    pi.set(3 + i, (group >> i) & 1 == 1);
                }
                let (_, next) = nl.eval(&pi, &state);
                let (hw_composed, hw_trap, hw_unlock) = decode_hw(&bfsm, &nl, &next);
                // Reference semantics.
                let (ref_state, _) =
                    bfsm.step(BfsmState::Locked { composed, cycle: 0 }, &bfsm.widen_input(v), group);
                match ref_state {
                    BfsmState::Locked { composed: c, .. } => {
                        assert!(!hw_trap && !hw_unlock, "composed {composed} input {v}");
                        assert_eq!(hw_composed, c, "composed {composed} input {v} group {group}");
                    }
                    BfsmState::Trapped { frozen, .. } => {
                        assert!(hw_trap, "expected trap from {composed} on {v}");
                        assert!(!hw_unlock);
                        assert_eq!(hw_composed, frozen, "modules must freeze at capture");
                    }
                    BfsmState::Unlocked { .. } => {
                        assert!(hw_unlock, "expected unlock from exit state");
                        assert_eq!(hw_composed, bfsm.added().exit_state());
                    }
                }
            }
        }
    }

    #[test]
    fn trapped_hardware_stays_trapped() {
        let lib = CellLibrary::generic();
        let bfsm = small_bfsm(1, 0, 35);
        let nl = added_netlist(&bfsm, &lib).unwrap();
        let mut state = hw_state(&bfsm, &nl, 17, true, false);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let mut pi = Bits::zeros(nl.inputs().len());
            for i in 0..3 {
                pi.set(i, rng.random_bool(0.5));
            }
            let (_, next) = nl.eval(&pi, &state);
            let (composed, trap, unlock) = decode_hw(&bfsm, &nl, &next);
            assert!(trap && !unlock);
            assert_eq!(composed, 17, "frozen state must not move");
            state = next;
        }
    }

    #[test]
    fn unlock_latch_is_sticky() {
        let lib = CellLibrary::generic();
        let bfsm = small_bfsm(0, 0, 36);
        let nl = added_netlist(&bfsm, &lib).unwrap();
        let mut state = hw_state(&bfsm, &nl, bfsm.added().exit_state(), false, false);
        // A wrong gate symbol at the exit must NOT set the latch.
        let wrong = bfsm.unlock_symbol() ^ 1;
        let mut pi = Bits::zeros(nl.inputs().len());
        for j in 0..3 {
            pi.set(j, (wrong >> j) & 1 == 1);
        }
        let (_, after_wrong) = nl.eval(&pi, &state);
        let (_, _, unlock) = decode_hw(&bfsm, &nl, &after_wrong);
        assert!(!unlock, "wrong gate symbol must not unlock");
        // The right symbol sets it; it must then stay set.
        for j in 0..3 {
            pi.set(j, (bfsm.unlock_symbol() >> j) & 1 == 1);
        }
        for step in 0..10 {
            let (_, next) = nl.eval(&pi, &state);
            let (_, _, unlock) = decode_hw(&bfsm, &nl, &next);
            assert!(unlock, "unlock must latch at step {step}");
            state = next;
        }
    }

    #[test]
    fn lock_cost_is_small_and_size_independent() {
        let lib = CellLibrary::generic();
        let bfsm = small_bfsm(1, 0, 37);
        let nl = added_netlist(&bfsm, &lib).unwrap();
        let stats = nl.stats(&lib);
        assert!(stats.area < 480.0, "lock area {}", stats.area);
        assert!(stats.ffs >= 6, "at least the module FFs");
    }
}
