//! The ISCAS'89 benchmark suite as published profiles, plus a calibrated
//! synthetic circuit generator.
//!
//! The paper evaluates on the ISCAS'89 sequential benchmarks synthesized
//! with SIS. Those gate-level netlists are not redistributable and SIS is
//! not available here, so this module embeds the **published per-circuit
//! numbers from the paper itself** — interface sizes (Table 1) and the
//! original-circuit area/delay/power columns (Tables 1–2) — and generates,
//! per profile, a random sequential circuit *calibrated* to match them in
//! this workspace's cost model. The paper's experiments only ever use the
//! original circuit as a cost baseline beside the added BFSM, so any
//! circuit with the same interface and cost reproduces the comparison
//! (DESIGN.md §4, substitution 3).

use crate::SynthError;
use hwm_netlist::{CellKind, CellLibrary, DesignStats, NetId, Netlist, NetlistBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Published characteristics of one ISCAS'89 circuit, as printed in the
/// paper's Tables 1 and 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Circuit name, e.g. `"s27"`.
    pub name: &'static str,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of flip-flops.
    pub ffs: usize,
    /// Mapped area of the original circuit (SIS units, Table 1).
    pub area: f64,
    /// Critical-path delay of the original circuit (Table 2).
    pub delay: f64,
    /// Power estimate of the original circuit (Table 2).
    pub power: f64,
}

/// The benchmark set used in the paper's Tables 1, 2 and 4.
///
/// `s5378` appears only in Table 2 (delay/power); its area column was not
/// printed, so the value here is interpolated from its gate count relative
/// to its neighbours and marked in EXPERIMENTS.md.
pub fn paper_benchmarks() -> Vec<BenchmarkProfile> {
    let p = |name, inputs, outputs, ffs, area, delay, power| BenchmarkProfile {
        name,
        inputs,
        outputs,
        ffs,
        area,
        delay,
        power,
    };
    vec![
        p("s27", 4, 1, 3, 18.0, 6.60, 134.00),
        p("s298", 3, 6, 14, 244.0, 15.00, 1167.20),
        p("s344", 9, 11, 15, 269.0, 27.00, 1030.00),
        p("s444", 3, 6, 21, 352.0, 17.60, 1550.80),
        p("s526", 3, 6, 21, 445.0, 15.20, 2065.70),
        p("s641", 35, 23, 17, 539.0, 97.60, 1560.60),
        p("s713", 35, 23, 17, 591.0, 100.00, 1670.70),
        p("s953", 16, 23, 29, 743.0, 23.60, 1816.50),
        p("s832", 18, 19, 5, 769.0, 28.80, 2849.60),
        p("s1238", 14, 14, 18, 1041.0, 34.40, 2709.40),
        p("s1423", 17, 5, 74, 1164.0, 92.40, 4882.70),
        // Area interpolated — not printed in the paper's Table 1.
        p("s5378", 35, 49, 179, 4212.0, 32.20, 12459.40),
        p("s9234", 36, 39, 135, 7971.0, 75.80, 19385.50),
        p("s13207", 31, 121, 453, 11248.0, 85.60, 37874.00),
        p("s38417", 28, 106, 1463, 32246.0, 69.40, 112706.80),
    ]
}

/// Looks up a profile by name.
pub fn benchmark(name: &str) -> Option<BenchmarkProfile> {
    paper_benchmarks().into_iter().find(|p| p.name == name)
}

/// The subset of [`paper_benchmarks`] small enough for fast test runs.
pub fn small_benchmarks() -> Vec<BenchmarkProfile> {
    paper_benchmarks()
        .into_iter()
        .filter(|p| p.area <= 1200.0)
        .collect()
}

/// A generated stand-in circuit together with its measured statistics and
/// the profile it was calibrated against.
#[derive(Debug, Clone)]
pub struct GeneratedCircuit {
    /// The circuit.
    pub netlist: Netlist,
    /// Measured statistics under the generating library.
    pub stats: DesignStats,
    /// The calibration target.
    pub profile: BenchmarkProfile,
}

/// Generates a synthetic sequential circuit calibrated to `profile`.
///
/// The generator builds a layered random DAG with the profile's exact
/// interface (PIs, POs, FFs), then iterates on the gate count until the
/// mapped area is within ~3 % of the target and on the spine depth until
/// the critical path is within ~10 % of the target delay. Power follows
/// from the gate count under the default activity model and is reported,
/// not separately tuned (it lands close because the paper's power scales
/// with area too).
///
/// # Errors
///
/// Returns [`SynthError::CalibrationFailed`] when the loop cannot converge
/// (e.g. contradictory targets).
pub fn generate(
    profile: &BenchmarkProfile,
    lib: &CellLibrary,
    seed: u64,
) -> Result<GeneratedCircuit, SynthError> {
    let _span = hwm_trace::span("synth.generate_circuit");
    // Initial estimates.
    let avg_gate_area = 1.9; // measured average of the kind distribution
    let ff_area = profile.ffs as f64 * lib.dff_area();
    let mut n_gates = (((profile.area - ff_area) / avg_gate_area).max(1.0)) as usize;
    let mut depth = (profile.delay / 1.5).round().max(1.0) as usize;

    let mut best: Option<(Netlist, DesignStats, f64)> = None;
    let mut iterations_run = 0u64;
    for iteration in 0..12 {
        iterations_run += 1;
        let netlist = build_random_circuit(profile, n_gates, depth, seed ^ (iteration as u64) << 32);
        let stats = netlist.stats(lib);
        let area_err = (stats.area - profile.area) / profile.area;
        let delay_err = (stats.delay - profile.delay) / profile.delay;
        let score = area_err.abs() + delay_err.abs();
        if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
            best = Some((netlist, stats, score));
        }
        if area_err.abs() <= 0.03 && delay_err.abs() <= 0.10 {
            break;
        }
        // Proportional control on both knobs.
        if area_err.abs() > 0.03 {
            let corrected = (n_gates as f64 / (1.0 + area_err)).round() as usize;
            n_gates = corrected.max(1);
        }
        if delay_err.abs() > 0.10 {
            let corrected = (depth as f64 / (1.0 + delay_err)).round() as usize;
            depth = corrected.clamp(1, n_gates.max(1));
        }
    }
    let (netlist, stats, _) = best.expect("at least one iteration ran");
    hwm_trace::counter("calibration_builds", iterations_run);
    let area_err = (stats.area - profile.area).abs() / profile.area;
    if area_err > 0.10 {
        return Err(SynthError::CalibrationFailed {
            profile: profile.name.to_string(),
            metric: "area",
        });
    }
    Ok(GeneratedCircuit {
        netlist,
        stats,
        profile: profile.clone(),
    })
}

fn build_random_circuit(
    profile: &BenchmarkProfile,
    n_gates: usize,
    depth: usize,
    seed: u64,
) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(profile.name);
    let pis: Vec<NetId> = (0..profile.inputs)
        .map(|i| b.input(format!("pi{i}")))
        .collect();
    let ff_q: Vec<NetId> = (0..profile.ffs).map(|i| b.net(format!("ffq{i}"))).collect();
    let mut sources: Vec<NetId> = pis.clone();
    sources.extend(&ff_q);

    let depth = depth.min(n_gates.max(1));
    // Layered construction: `depth` spine gates forming the critical path,
    // remaining gates spread over layers.
    let mut levels: Vec<Vec<NetId>> = vec![sources.clone()];
    let mut remaining = n_gates;
    let mut spine_prev: Option<NetId> = None;
    let per_layer = (n_gates / depth.max(1)).max(1);
    let mut all_nets: Vec<NetId> = sources.clone();
    for layer in 0..depth {
        if remaining == 0 {
            break;
        }
        let count = if layer + 1 == depth {
            remaining
        } else {
            per_layer.min(remaining)
        };
        let mut layer_nets = Vec::with_capacity(count);
        for g in 0..count {
            let kind = random_kind(&mut rng);
            let arity = kind.arity();
            let mut inputs = Vec::with_capacity(arity);
            // Spine: the first gate of each layer chains to the previous
            // layer's spine gate, keeping the critical path at `depth`.
            if g == 0 {
                if let Some(prev) = spine_prev {
                    inputs.push(prev);
                }
            }
            while inputs.len() < arity {
                // Prefer the previous layer, fall back to anything earlier.
                let pool = if rng.random_bool(0.7) {
                    levels.last().unwrap()
                } else {
                    &all_nets
                };
                inputs.push(pool[rng.random_range(0..pool.len())]);
            }
            let out = b.gate(kind, &inputs);
            if g == 0 {
                spine_prev = Some(out);
            }
            layer_nets.push(out);
        }
        remaining -= count;
        all_nets.extend(&layer_nets);
        levels.push(layer_nets);
    }

    // Connect FF inputs and primary outputs to late nets.
    let late: Vec<NetId> = levels
        .iter()
        .rev()
        .take(2)
        .flatten()
        .copied()
        .collect::<Vec<_>>();
    let late = if late.is_empty() { sources.clone() } else { late };
    for (i, &q) in ff_q.iter().enumerate() {
        let d = late[rng.random_range(0..late.len())];
        b.flip_flop_onto(d, q, false);
        let _ = i;
    }
    for i in 0..profile.outputs {
        let net = late[rng.random_range(0..late.len())];
        b.output(format!("po{i}"), net);
    }
    b.finish().expect("layered construction is acyclic by design")
}

fn random_kind<R: Rng + ?Sized>(rng: &mut R) -> CellKind {
    match rng.random_range(0..10u32) {
        0 | 1 => CellKind::Nand(2),
        2 => CellKind::Nand(3),
        3 | 4 => CellKind::Nor(2),
        5 => CellKind::And(2),
        6 => CellKind::Or(2),
        7 => CellKind::Inv,
        8 => CellKind::Xor2,
        _ => CellKind::Nand(4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_values() {
        let all = paper_benchmarks();
        assert_eq!(all.len(), 15);
        let s27 = benchmark("s27").unwrap();
        assert_eq!((s27.inputs, s27.outputs, s27.ffs), (4, 1, 3));
        assert_eq!(s27.area, 18.0);
        let s38417 = benchmark("s38417").unwrap();
        assert_eq!(s38417.ffs, 1463);
        assert_eq!(s38417.power, 112706.80);
        assert!(benchmark("s9999").is_none());
    }

    fn relative_error(got: f64, want: f64) -> f64 {
        (got - want).abs() / want
    }

    #[test]
    fn small_circuit_calibrates() {
        let lib = CellLibrary::generic();
        let s298 = benchmark("s298").unwrap();
        let g = generate(&s298, &lib, 42).unwrap();
        let area_error = relative_error(g.stats.area, g.profile.area);
        assert!(area_error < 0.10, "area error {area_error}");
        assert_eq!(g.netlist.inputs().len(), 3);
        assert_eq!(g.netlist.outputs().len(), 6);
        assert_eq!(g.netlist.flip_flops().len(), 14);
    }

    #[test]
    fn medium_circuit_calibrates_delay_too() {
        let lib = CellLibrary::generic();
        let s1238 = benchmark("s1238").unwrap();
        let g = generate(&s1238, &lib, 7).unwrap();
        let area_error = relative_error(g.stats.area, g.profile.area);
        let delay_error = relative_error(g.stats.delay, g.profile.delay);
        assert!(area_error < 0.10, "area error {area_error}");
        assert!(delay_error < 0.35, "delay error {delay_error}");
    }

    #[test]
    fn deterministic_generation() {
        let lib = CellLibrary::generic();
        let p = benchmark("s344").unwrap();
        let a = generate(&p, &lib, 5).unwrap();
        let b = generate(&p, &lib, 5).unwrap();
        assert_eq!(a.netlist, b.netlist);
    }

    #[test]
    fn generated_circuit_simulates() {
        use hwm_logic::Bits;
        let lib = CellLibrary::generic();
        let p = benchmark("s27").unwrap();
        let g = generate(&p, &lib, 1).unwrap();
        let (po, ns) = g.netlist.eval(&Bits::zeros(4), &Bits::zeros(3));
        assert_eq!(po.len(), 1);
        assert_eq!(ns.len(), 3);
    }
}
