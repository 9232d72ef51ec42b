//! The netlist graph and its builder.

use crate::{CellKind, CellLibrary, DesignStats, NetlistError};
use hwm_logic::Bits;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

/// Identifier of a combinational gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GateId(pub(crate) u32);

impl NetId {
    /// Raw index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GateId {
    /// Raw index of the gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A wire in the netlist.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    /// Human-readable name.
    pub name: String,
}

/// A combinational gate instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gate {
    /// Logic function.
    pub kind: CellKind,
    /// Input nets, in pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A D flip-flop instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipFlop {
    /// Data input net.
    pub d: NetId,
    /// Output net.
    pub q: NetId,
    /// Power-up / reset value when simulated deterministically.
    pub init: bool,
}

/// A mapped gate-level netlist.
///
/// Construct with [`NetlistBuilder`]; the finished netlist is validated
/// (single driver per net, no combinational cycles) and immutable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    ffs: Vec<FlipFlop>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    topo: Vec<GateId>,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All combinational gates.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops.
    pub fn flip_flops(&self) -> &[FlipFlop] {
        &self.ffs
    }

    /// Primary input nets.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as (name, net) pairs.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Gates in topological (fanin-before-fanout) order.
    pub fn topological_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()].name
    }

    /// Evaluates the combinational logic for one clock cycle.
    ///
    /// `pi` are the primary-input values (in [`Netlist::inputs`] order) and
    /// `state` the current flip-flop values (in [`Netlist::flip_flops`]
    /// order). Returns `(primary outputs, next state)`.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not match the interface.
    pub fn eval(&self, pi: &Bits, state: &Bits) -> (Bits, Bits) {
        assert_eq!(pi.len(), self.inputs.len(), "primary input width mismatch");
        assert_eq!(state.len(), self.ffs.len(), "state width mismatch");
        let mut value = vec![false; self.nets.len()];
        for (i, &net) in self.inputs.iter().enumerate() {
            value[net.index()] = pi.get(i);
        }
        for (i, ff) in self.ffs.iter().enumerate() {
            value[ff.q.index()] = state.get(i);
        }
        let mut scratch = Vec::with_capacity(4);
        for &gid in &self.topo {
            let g = &self.gates[gid.index()];
            scratch.clear();
            scratch.extend(g.inputs.iter().map(|n| value[n.index()]));
            value[g.output.index()] = g.kind.eval(&scratch);
        }
        let po = self
            .outputs
            .iter()
            .map(|(_, n)| value[n.index()])
            .collect::<Bits>();
        let next = self.ffs.iter().map(|ff| value[ff.d.index()]).collect::<Bits>();
        (po, next)
    }

    /// Total cell area under the given library.
    pub fn area(&self, lib: &CellLibrary) -> f64 {
        let gate_area: f64 = self.gates.iter().map(|g| lib.cell(g.kind).area).sum();
        gate_area + self.ffs.len() as f64 * lib.dff_area()
    }

    /// Full cost report: area, critical-path delay, power.
    pub fn stats(&self, lib: &CellLibrary) -> DesignStats {
        DesignStats {
            area: self.area(lib),
            delay: crate::sta::critical_path_delay(self, lib),
            power: crate::power::estimate(self, lib, &crate::power::ActivityModel::default()),
            gates: self.gates.len(),
            ffs: self.ffs.len(),
        }
    }

    /// Merges another netlist into this one side by side (disjoint logic,
    /// shared nothing), returning the combined netlist. Primary inputs and
    /// outputs of both designs are preserved; names are prefixed to stay
    /// unique. This models placing an added block (e.g. a BFSM) on the same
    /// die as the original design.
    pub fn merged_with(&self, other: &Netlist, other_prefix: &str) -> Netlist {
        let mut b = NetlistBuilder::new(format!("{}+{}", self.name, other.name));
        let mut map_self: Vec<NetId> = Vec::with_capacity(self.nets.len());
        for net in &self.nets {
            map_self.push(b.net(net.name.clone()));
        }
        let mut map_other: Vec<NetId> = Vec::with_capacity(other.nets.len());
        for net in &other.nets {
            map_other.push(b.net(format!("{other_prefix}{}", net.name)));
        }
        let add = |nl: &Netlist, map: &[NetId], b: &mut NetlistBuilder, prefix: &str| {
            for &i in &nl.inputs {
                b.mark_input(map[i.index()]);
            }
            for (name, o) in &nl.outputs {
                b.output(format!("{prefix}{name}"), map[o.index()]);
            }
            for g in &nl.gates {
                let ins: Vec<NetId> = g.inputs.iter().map(|n| map[n.index()]).collect();
                b.gate_onto(g.kind, &ins, map[g.output.index()]);
            }
            for ff in &nl.ffs {
                b.flip_flop_onto(map[ff.d.index()], map[ff.q.index()], ff.init);
            }
        };
        add(self, &map_self, &mut b, "");
        add(other, &map_other, &mut b, other_prefix);
        b.finish().expect("merging two valid netlists cannot fail")
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} PIs, {} POs, {} gates, {} FFs",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.gates.len(),
            self.ffs.len()
        )
    }
}

/// Incremental builder for [`Netlist`].
///
/// # Example
///
/// ```
/// use hwm_netlist::{CellKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("xor_ff");
/// let a = b.input("a");
/// let q0 = b.net("q0");
/// let x = b.gate(CellKind::Xor2, &[a, q0]);
/// b.flip_flop_onto(x, q0, false); // toggle register
/// b.output("y", q0);
/// let nl = b.finish().unwrap();
/// assert_eq!(nl.flip_flops().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    gates: Vec<Gate>,
    ffs: Vec<FlipFlop>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    names: HashMap<String, u32>,
}

impl NetlistBuilder {
    /// Starts building a netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            gates: Vec::new(),
            ffs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: HashMap::new(),
        }
    }

    /// Creates a new net; the name is uniquified if already present.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let mut name = name.into();
        if let Some(n) = self.names.get_mut(&name) {
            *n += 1;
            name = format!("{name}__{n}");
        } else {
            self.names.insert(name.clone(), 0);
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name });
        id
    }

    /// Creates a primary input net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary input.
    pub fn mark_input(&mut self, net: NetId) {
        self.inputs.push(net);
    }

    /// Declares a primary output driven by `net`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Instantiates a gate driving a fresh net, which is returned.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the cell arity.
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        let out = self.net(format!("n{}", self.nets.len()));
        self.gate_onto(kind, inputs, out);
        out
    }

    /// Instantiates a gate driving an existing net.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the cell arity.
    pub fn gate_onto(&mut self, kind: CellKind, inputs: &[NetId], output: NetId) {
        assert_eq!(
            inputs.len(),
            kind.arity(),
            "cell {kind:?} takes {} inputs, got {}",
            kind.arity(),
            inputs.len()
        );
        assert!(kind.is_valid(), "invalid cell kind {kind:?}");
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
    }

    /// Instantiates a D flip-flop onto an existing Q net.
    pub fn flip_flop_onto(&mut self, d: NetId, q: NetId, init: bool) {
        self.ffs.push(FlipFlop { d, q, init });
    }

    /// Inlines `child` into this builder as a sub-block: the child's primary
    /// inputs are connected to `input_nets` (in the child's input order),
    /// all gates and flip-flops are copied (net names prefixed), and the
    /// ports of the instance are returned. The child's primary outputs do
    /// **not** become outputs of the parent — wire them as needed.
    ///
    /// # Panics
    ///
    /// Panics if `input_nets.len()` differs from the child's input count.
    pub fn instantiate(
        &mut self,
        child: &Netlist,
        input_nets: &[NetId],
        prefix: &str,
    ) -> InstancePorts {
        assert_eq!(
            input_nets.len(),
            child.inputs.len(),
            "instance of {} needs {} input nets, got {}",
            child.name,
            child.inputs.len(),
            input_nets.len()
        );
        let mut map: Vec<Option<NetId>> = vec![None; child.nets.len()];
        for (i, &pi) in child.inputs.iter().enumerate() {
            map[pi.index()] = Some(input_nets[i]);
        }
        let resolve = |b: &mut NetlistBuilder, map: &mut Vec<Option<NetId>>, id: NetId| {
            if let Some(n) = map[id.index()] {
                n
            } else {
                let n = b.net(format!("{prefix}{}", child.nets[id.index()].name));
                map[id.index()] = Some(n);
                n
            }
        };
        for g in &child.gates {
            let ins: Vec<NetId> = g
                .inputs
                .iter()
                .map(|&n| resolve(self, &mut map, n))
                .collect();
            let out = resolve(self, &mut map, g.output);
            self.gate_onto(g.kind, &ins, out);
        }
        let mut ff_qs = Vec::with_capacity(child.ffs.len());
        for ff in &child.ffs {
            let d = resolve(self, &mut map, ff.d);
            let q = resolve(self, &mut map, ff.q);
            self.flip_flop_onto(d, q, ff.init);
            ff_qs.push(q);
        }
        let outputs = child
            .outputs
            .iter()
            .map(|(_, o)| resolve(self, &mut map, *o))
            .collect();
        InstancePorts { outputs, ff_qs }
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`], [`NetlistError::Undriven`]
    /// or [`NetlistError::CombinationalCycle`] when the graph is malformed.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        // Driver check.
        let mut driver: Vec<Option<Driver>> = vec![None; self.nets.len()];
        for &net in &self.inputs {
            set_driver(&mut driver, &self.nets, net, Driver::Input)?;
        }
        for (i, g) in self.gates.iter().enumerate() {
            set_driver(&mut driver, &self.nets, g.output, Driver::Gate(i))?;
        }
        for ff in &self.ffs {
            set_driver(&mut driver, &self.nets, ff.q, Driver::FlipFlop)?;
        }
        for (net, d) in driver.iter().enumerate() {
            if d.is_none() {
                return Err(NetlistError::Undriven {
                    net: self.nets[net].name.clone(),
                });
            }
        }
        // Topological sort of gates (Kahn); FF Q pins and PIs are sources.
        let mut indegree = vec![0usize; self.gates.len()];
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            for &input in &g.inputs {
                if let Some(Driver::Gate(j)) = driver[input.index()] {
                    indegree[i] += 1;
                    fanout[j].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut topo = Vec::with_capacity(self.gates.len());
        while let Some(i) = queue.pop() {
            topo.push(GateId(i as u32));
            for &j in &fanout[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if topo.len() != self.gates.len() {
            return Err(NetlistError::CombinationalCycle);
        }
        Ok(Netlist {
            name: self.name,
            nets: self.nets,
            gates: self.gates,
            ffs: self.ffs,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
        })
    }
}

/// Ports of a child netlist inlined by [`NetlistBuilder::instantiate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstancePorts {
    /// Nets corresponding to the child's primary outputs, in order.
    pub outputs: Vec<NetId>,
    /// Nets corresponding to the child's flip-flop Q pins, in order.
    pub ff_qs: Vec<NetId>,
}

#[derive(Debug, Clone, Copy)]
enum Driver {
    Input,
    Gate(usize),
    FlipFlop,
}

fn set_driver(
    driver: &mut [Option<Driver>],
    nets: &[Net],
    net: NetId,
    d: Driver,
) -> Result<(), NetlistError> {
    let slot = &mut driver[net.index()];
    if slot.is_some() {
        return Err(NetlistError::MultipleDrivers {
            net: nets[net.index()].name.clone(),
        });
    }
    *slot = Some(d);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_ff() -> Netlist {
        let mut b = NetlistBuilder::new("xor_ff");
        let a = b.input("a");
        let q0 = b.net("q0");
        let x = b.gate(CellKind::Xor2, &[a, q0]);
        b.flip_flop_onto(x, q0, false);
        b.output("y", q0);
        b.finish().unwrap()
    }

    #[test]
    fn build_and_eval_toggle() {
        let nl = xor_ff();
        let (po, next) = nl.eval(&Bits::from_u64(1, 1), &Bits::from_u64(0, 1));
        assert_eq!(po.low_u64(), 0); // output is current state
        assert_eq!(next.low_u64(), 1); // toggles
        let (_, next2) = nl.eval(&Bits::from_u64(1, 1), &next);
        assert_eq!(next2.low_u64(), 0);
        let (_, hold) = nl.eval(&Bits::from_u64(0, 1), &Bits::from_u64(1, 1));
        assert_eq!(hold.low_u64(), 1); // holds when input is 0
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let n = b.net("n");
        b.gate_onto(CellKind::Inv, &[a], n);
        b.gate_onto(CellKind::Buf, &[a], n);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let n = b.net("floating");
        b.output("y", n);
        assert!(matches!(b.finish(), Err(NetlistError::Undriven { .. })));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let x = b.net("x");
        let y = b.net("y");
        b.gate_onto(CellKind::Inv, &[x], y);
        b.gate_onto(CellKind::Inv, &[y], x);
        assert_eq!(b.finish().unwrap_err(), NetlistError::CombinationalCycle);
    }

    #[test]
    fn sequential_loop_allowed() {
        // A loop through a flip-flop is fine.
        assert_eq!(xor_ff().gates().len(), 1);
    }

    #[test]
    fn names_uniquified() {
        let mut b = NetlistBuilder::new("n");
        let a = b.net("w");
        let c = b.net("w");
        assert_ne!(a, c);
    }

    #[test]
    fn merge_keeps_both() {
        let a = xor_ff();
        let b = xor_ff();
        let m = a.merged_with(&b, "bfsm_");
        assert_eq!(m.gates().len(), 2);
        assert_eq!(m.flip_flops().len(), 2);
        assert_eq!(m.inputs().len(), 2);
        assert_eq!(m.outputs().len(), 2);
        let lib = CellLibrary::generic();
        let sa = a.stats(&lib);
        let sm = m.stats(&lib);
        assert!((sm.area - 2.0 * sa.area).abs() < 1e-9);
    }

    #[test]
    fn stats_nonzero() {
        let lib = CellLibrary::generic();
        let s = xor_ff().stats(&lib);
        assert!(s.area > 0.0 && s.delay > 0.0 && s.power > 0.0);
        assert_eq!(s.ffs, 1);
    }
}

#[cfg(test)]
mod instantiate_tests {
    use super::*;
    use hwm_logic::Bits;

    #[test]
    fn instantiate_wires_child_logic() {
        // Child: y = !(a & b), one FF capturing y.
        let mut cb = NetlistBuilder::new("child");
        let a = cb.input("a");
        let b2 = cb.input("b");
        let y = cb.gate(CellKind::Nand(2), &[a, b2]);
        let q = cb.net("q");
        cb.flip_flop_onto(y, q, false);
        cb.output("y", y);
        cb.output("q", q);
        let child = cb.finish().unwrap();

        let mut pb = NetlistBuilder::new("parent");
        let x = pb.input("x");
        let one = pb.gate(CellKind::Const1, &[]);
        let ports = pb.instantiate(&child, &[x, one], "u0_");
        pb.output("z", ports.outputs[0]);
        pb.output("zq", ports.ff_qs[0]);
        let parent = pb.finish().unwrap();
        assert_eq!(parent.flip_flops().len(), 1);
        // z = !(x & 1) = !x.
        let (po, ns) = parent.eval(&Bits::from_u64(1, 1), &Bits::from_u64(0, 1));
        assert!(!po.get(0));
        assert!(!ns.get(0));
        let (po, _) = parent.eval(&Bits::from_u64(0, 1), &Bits::from_u64(0, 1));
        assert!(po.get(0));
    }

    #[test]
    fn two_instances_stay_disjoint() {
        let mut cb = NetlistBuilder::new("inv");
        let a = cb.input("a");
        let y = cb.gate(CellKind::Inv, &[a]);
        cb.output("y", y);
        let child = cb.finish().unwrap();

        let mut pb = NetlistBuilder::new("parent");
        let x = pb.input("x");
        let p0 = pb.instantiate(&child, &[x], "u0_");
        let p1 = pb.instantiate(&child, &[p0.outputs[0]], "u1_");
        pb.output("z", p1.outputs[0]);
        let parent = pb.finish().unwrap();
        assert_eq!(parent.gates().len(), 2);
        let (po, _) = parent.eval(&Bits::from_u64(1, 1), &Bits::zeros(0));
        assert!(po.get(0)); // double inversion
    }
}
