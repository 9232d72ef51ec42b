//! The interconnected added state space (§5.2).
//!
//! `q` 3-bit modules compose into a `3q`-bit added STG of `8^q` states —
//! exponentially many states for linear hardware, exactly the paper's
//! low-overhead requirement. Composition is a carry chain: module 0 always
//! steps; module `i` steps only while all lower modules sit at their exits.
//! Cross-links add input-dependent shortcuts between modules, creating the
//! multiplicity of traversal paths (and cycles) that §5.2 requires for key
//! diversity. The global *exit* is the all-modules-at-exit configuration,
//! whose outgoing edges are the transitions "from the added states to the
//! reset state of the original design" (§4.1).
//!
//! Every composed state reaches the exit: each module's ring is a single
//! 8-cycle, so holding the carry chain enabled long enough walks each module
//! to its exit in turn; the designer's BFS finds a much shorter route.
//!
//! The composed step runs on lookup tables derived once by the
//! constructors (per input value, a module's state after its cross-links
//! for each pair of its own and its previous module's states, and each
//! module's ring map); [`Module3::next`] and [`CrossLink::apply`] stay the
//! reference semantics the tables are filled from.

use crate::module3::{Module3, MODULE_BITS, MODULE_STATES};
use crate::MeteringError;
use hwm_logic::{Cube, Tri};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// A shortcut edge between modules (the paper's interconnection edges), in
/// bijective form: when the *previous* module is at `requires_prev_at` and
/// the input matches, module `module`'s states `a` and `b` swap before the
/// module's own step — regardless of its carry enable. This splices extra
/// paths (and cycles) into the product graph while keeping every per-input
/// composed map a permutation (see the module3 docs for why that matters).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossLink {
    /// Index of the module that swaps (1..q).
    pub module: usize,
    /// Required state of module `module − 1`.
    pub requires_prev_at: u8,
    /// Input condition.
    pub input: Cube,
    /// One endpoint of the transposition.
    pub a: u8,
    /// The other endpoint, distinct from `a`.
    pub b: u8,
}

impl CrossLink {
    /// Applies the transposition when active.
    pub fn apply(&self, s: u8) -> u8 {
        if s == self.a {
            self.b
        } else if s == self.b {
            self.a
        } else {
            s
        }
    }
}

/// Usable inputs the first, cheap pass of [`AddedStg::all_reach_exit`]
/// tries before all of them.
const QUICK_INPUTS: usize = 8;

/// How many added STGs a verified build tries before it gives up.
const BUILD_ATTEMPTS: u64 = 16;

/// The seeds a verified build tries its added STGs under, in order,
/// `seed` itself first: [`AddedStg::build_verified`] and
/// [`crate::Designer::new`] both take them from here.
pub(crate) fn attempt_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..BUILD_ATTEMPTS)
        .map(move |attempt| seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Most modules a composed state can hold: it is a `u32` with 3 bits per
/// module.
pub const MAX_MODULES: usize = 10;

/// Evaluates `$body` with `$n` bound to the module count `$q` as a
/// constant, one arm per count in `1..=MAX_MODULES`, so a generic
/// body such as [`AddedStg::step_n`] is instantiated for every count and
/// the choice is made once, outside whatever loop `$body` runs.
///
/// # Panics
///
/// Panics when `$q` is outside `1..=MAX_MODULES`, which no constructor
/// allows.
macro_rules! with_module_count {
    ($q:expr, $n:ident => $body:expr) => {
        match $q {
            1 => with_module_count!(@arm 1, $n => $body),
            2 => with_module_count!(@arm 2, $n => $body),
            3 => with_module_count!(@arm 3, $n => $body),
            4 => with_module_count!(@arm 4, $n => $body),
            5 => with_module_count!(@arm 5, $n => $body),
            6 => with_module_count!(@arm 6, $n => $body),
            7 => with_module_count!(@arm 7, $n => $body),
            8 => with_module_count!(@arm 8, $n => $body),
            9 => with_module_count!(@arm 9, $n => $body),
            10 => with_module_count!(@arm 10, $n => $body),
            q => panic!("{q} modules outside 1..={}", $crate::added::MAX_MODULES),
        }
    };
    (@arm $k:literal, $n:ident => $body:expr) => {{
        const $n: usize = $k;
        $body
    }};
}
pub(crate) use with_module_count;

// The dispatch above has one arm per module count.
const _: () = assert!(MAX_MODULES == 10);

/// The composed added STG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddedStg {
    modules: Vec<Module3>,
    links: Vec<CrossLink>,
    input_bits: usize,
    /// Derived from the fields above by every constructor.
    tables: StepTables,
}

/// A permutation of one module's 8 states, packed 3 bits per state: the
/// image of `s` is `(perm >> 3s) & 7`.
type Perm = u32;

const STATE_MASK: u32 = MODULE_STATES as u32 - 1;

/// The identity [`Perm`]: state `s` in field `s`.
const IDENTITY: Perm = 0o76543210;

#[inline]
fn perm_apply(perm: Perm, s: u32) -> u32 {
    (perm >> (MODULE_BITS as u32 * s)) & STATE_MASK
}

fn perm_pack(f: impl Fn(u32) -> u32) -> Perm {
    (0..MODULE_STATES as u32).fold(0, |p, s| p | f(s) << (MODULE_BITS as u32 * s))
}

fn perm_inverse(perm: Perm) -> Perm {
    (0..MODULE_STATES as u32).fold(0, |p, s| {
        p | s << (MODULE_BITS as u32 * perm_apply(perm, s))
    })
}

/// The lookup tables behind [`AddedStg::step`] and [`AddedStg::step_inv`].
///
/// The forward step reads two tables, each one contiguous row per input
/// value `v`:
///
/// * `link`, one byte per (module `i ≥ 1`, pre-step state `s` of `i`,
///   pre-step state `p` of module `i − 1`) at `v·64(q − 1) + 64(i − 1) +
///   8s + p`: `s` after `i`'s cross-links active under `(p, v)`, composed
///   in declaration order. The low index `8s + p` is bits `3(i − 1)`
///   to `3i + 2` of the composed state, so one shift and mask find it.
///   Module 0 has no links and no row.
/// * `ring`, one [`Perm`] per module at `vq + i`: `i`'s enabled successor
///   map [`Module3::next`] on `v`.
///
/// `inv` holds one `u64` per (module `i`, `p`, `v`) at `(qv + i)·8 + p`:
/// the inverse of `i`'s composed cross-links under `(p, v)` in the low
/// half (the identity for module 0) and the inverse ring map, repeated
/// for every `p`, in the high half.
#[derive(Clone, PartialEq, Default)]
struct StepTables {
    link: Vec<u8>,
    ring: Vec<Perm>,
    inv: Vec<u64>,
}

/// Bytes of one module's `link` row: 8 own states × 8 previous states.
const LINK_ROW: usize = MODULE_STATES * MODULE_STATES;

impl StepTables {
    fn new(modules: &[Module3], links: &[CrossLink], input_bits: usize) -> Self {
        let q = modules.len();
        let inputs = 1usize << input_bits;
        let mut tables = StepTables {
            link: vec![0; inputs * (q - 1) * LINK_ROW],
            ring: vec![0; inputs * q],
            inv: vec![0; inputs * q * MODULE_STATES],
        };
        for (i, m) in modules.iter().enumerate() {
            let own: Vec<&CrossLink> = links.iter().filter(|l| l.module == i).collect();
            for v in 0..inputs {
                let ring = perm_pack(|s| u32::from(m.next(s as u8, v as u64)));
                tables.ring[v * q + i] = ring;
                let ring_inv = u64::from(perm_inverse(ring)) << 32;
                for p in 0..MODULE_STATES {
                    let link = own
                        .iter()
                        .filter(|l| {
                            usize::from(l.requires_prev_at) == p
                                && l.input.covers_minterm_u64(v as u64)
                        })
                        .fold(IDENTITY, |perm, l| {
                            perm_pack(|s| u32::from(l.apply(perm_apply(perm, s) as u8)))
                        });
                    tables.inv[(v * q + i) * MODULE_STATES + p] =
                        u64::from(perm_inverse(link)) | ring_inv;
                    if i > 0 {
                        let row = (v * (q - 1) + i - 1) * LINK_ROW;
                        for s in 0..MODULE_STATES {
                            tables.link[row + s * MODULE_STATES + p] =
                                perm_apply(link, s as u32) as u8;
                        }
                    }
                }
            }
        }
        tables
    }

    /// Bytes the forward step reads: both forward tables.
    fn forward_bytes(&self) -> usize {
        self.link.len() + self.ring.len() * std::mem::size_of::<Perm>()
    }
}

impl std::fmt::Debug for StepTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepTables")
            .field("forward_bytes", &self.forward_bytes())
            .finish_non_exhaustive()
    }
}

impl AddedStg {
    /// Builds an added STG of `q` modules over `input_bits` design inputs,
    /// with `links_per_module` cross-links, using pre-searched low-overhead
    /// modules.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] for `q` outside
    /// `1..=`[`MAX_MODULES`] or an input width outside `1..=8`.
    pub fn build(
        q: usize,
        input_bits: usize,
        overrides_per_module: usize,
        links_per_module: usize,
        seed: u64,
    ) -> Result<Self, MeteringError> {
        if q == 0 {
            return Err(MeteringError::InvalidOptions {
                reason: "need at least one module".to_string(),
            });
        }
        if q > MAX_MODULES {
            return Err(MeteringError::InvalidOptions {
                reason: format!("{q} modules exceed {MAX_MODULES} (the composed state is a u32)"),
            });
        }
        if !(1..=8).contains(&input_bits) {
            return Err(MeteringError::InvalidOptions {
                reason: format!("input width {input_bits} outside 1..=8"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let modules: Vec<Module3> = (0..q)
            .map(|_| Module3::random(input_bits, overrides_per_module, &mut rng))
            .collect();
        let mut links = Vec::new();
        for m in 1..q {
            for _ in 0..links_per_module {
                let mut tris = vec![Tri::DontCare; input_bits];
                let lits = 2.min(input_bits);
                for _ in 0..lits {
                    let p = rng.random_range(0..input_bits);
                    tris[p] = if rng.random_bool(0.5) { Tri::One } else { Tri::Zero };
                }
                let a = rng.random_range(0..MODULE_STATES as u8);
                let mut b = rng.random_range(0..MODULE_STATES as u8);
                while b == a {
                    b = rng.random_range(0..MODULE_STATES as u8);
                }
                links.push(CrossLink {
                    module: m,
                    requires_prev_at: rng.random_range(0..MODULE_STATES as u8),
                    input: Cube::from_tris(&tris),
                    a,
                    b,
                });
            }
        }
        Ok(AddedStg::new(modules, links, input_bits))
    }

    fn new(modules: Vec<Module3>, links: Vec<CrossLink>, input_bits: usize) -> Self {
        let tables = StepTables::new(&modules, &links, input_bits);
        AddedStg {
            modules,
            links,
            input_bits,
            tables,
        }
    }

    /// Like [`AddedStg::build`], but each module is the lowest-area
    /// configuration among `candidates` synthesized candidates — the
    /// paper's §5.2 exhaustive module search. `candidates = 1` degenerates
    /// to [`AddedStg::build`].
    ///
    /// # Errors
    ///
    /// As [`AddedStg::build`], plus synthesis failures from the search.
    pub fn build_searched(
        q: usize,
        input_bits: usize,
        overrides_per_module: usize,
        links_per_module: usize,
        candidates: usize,
        lib: &hwm_netlist::CellLibrary,
        seed: u64,
    ) -> Result<Self, MeteringError> {
        if candidates <= 1 {
            return AddedStg::build(q, input_bits, overrides_per_module, links_per_module, seed);
        }
        let base = AddedStg::build(q, input_bits, overrides_per_module, links_per_module, seed)?;
        let modules = (0..q)
            .map(|i| {
                Module3::search_low_overhead(
                    input_bits,
                    overrides_per_module,
                    candidates,
                    lib,
                    seed ^ ((i as u64 + 1) << 40),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AddedStg::new(modules, base.links, input_bits))
    }

    /// Like [`AddedStg::build`], but retries with derived seeds until every
    /// composed state can reach the exit under every SFFSM group in
    /// `0..groups` — the traversal-path guarantee of §5.2. The pathological
    /// configurations this filters out (override edges blocking every
    /// ring-walk input simultaneously) are rare, so a handful of attempts
    /// suffices.
    ///
    /// # Errors
    ///
    /// As [`AddedStg::build`], plus [`MeteringError::InvalidOptions`] when
    /// 16 attempts all failed verification.
    pub fn build_verified(
        q: usize,
        input_bits: usize,
        overrides_per_module: usize,
        links_per_module: usize,
        seed: u64,
        groups: u8,
    ) -> Result<Self, MeteringError> {
        for attempt_seed in attempt_seeds(seed) {
            let candidate =
                AddedStg::build(q, input_bits, overrides_per_module, links_per_module, attempt_seed)?;
            if candidate.verify_exit_reachability(groups) {
                return Ok(candidate);
            }
        }
        Err(MeteringError::InvalidOptions {
            reason: "could not build an added STG with full exit reachability".to_string(),
        })
    }

    /// Whether every composed state reaches the exit under every group in
    /// `0..groups`.
    pub fn verify_exit_reachability(&self, groups: u8) -> bool {
        (0..groups.max(1)).all(|g| self.all_reach_exit(g, |_| true, |_, _| true))
    }

    /// Whether every state reaches the exit over the edges
    /// [`AddedStg::distances_to_exit_where`] walks, with the inputs
    /// narrowed to those passing `usable`. Reachability only grows with
    /// more edges, so a BFS over the first [`QUICK_INPUTS`] usable inputs
    /// settles most locks at a fraction of the cost; only when it leaves a
    /// state unreached does the BFS over every usable input decide.
    pub(crate) fn all_reach_exit(
        &self,
        group: u8,
        usable: impl Fn(u64) -> bool,
        keep: impl Fn(u32, u64) -> bool,
    ) -> bool {
        let _span = hwm_trace::span("metering.reachability");
        let reaches_all = |take: usize| {
            let inputs = self.spread_inputs().filter(|&v| usable(v)).take(take);
            self.distances_to_exit_where(group, inputs, &keep, |_, _| {})
                .iter()
                .all(|&d| d != usize::MAX)
        };
        reaches_all(QUICK_INPUTS) || reaches_all(usize::MAX)
    }

    /// Every input value once, in an order whose first few values already
    /// vary every input bit: an odd multiplier permutes `0..2^b`.
    fn spread_inputs(&self) -> impl Iterator<Item = u64> + Clone {
        let mask = (1u64 << self.input_bits) - 1;
        (0..=mask).map(move |k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// The modules.
    pub fn modules(&self) -> &[Module3] {
        &self.modules
    }

    /// The cross-links.
    pub fn links(&self) -> &[CrossLink] {
        &self.links
    }

    /// Number of added state bits (`3q`) — the paper's "FF" count for the
    /// added STG.
    pub fn state_bits(&self) -> usize {
        MODULE_BITS * self.modules.len()
    }

    /// Number of composed states (`8^q`).
    pub fn state_count(&self) -> usize {
        1usize << self.state_bits()
    }

    /// Input width.
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// The all-exit composed state (state index 0 by construction).
    pub fn exit_state(&self) -> u32 {
        0
    }

    /// Whether `state` is the global exit.
    pub fn is_exit(&self, state: u32) -> bool {
        state == self.exit_state()
    }

    /// Extracts module `i`'s state from a composed index.
    pub fn module_state(&self, composed: u32, i: usize) -> u8 {
        ((composed >> (MODULE_BITS * i)) & (MODULE_STATES as u32 - 1)) as u8
    }

    /// One composed step under input value `input` (low `input_bits` used)
    /// for a chip in SFFSM group `group` (0 when SFFSM is off).
    ///
    /// Per module, low to high: the cross-link transpositions apply first,
    /// regardless of the carry enable; their condition reads the previous
    /// module's *current* state, so the composed map stays triangular (and
    /// hence a bijection) in the module coordinates. An enabled module then
    /// takes its own step, *conjugated* by the SFFSM salt: next = f(s ⊕ g)
    /// ⊕ g. Conjugation preserves the single-cycle ring structure (and
    /// bijectivity) for every group, so the exit stays reachable from
    /// everywhere, and the hardware is just one XOR per state bit on each
    /// side of the module block, fed by the RUB group cells. The next
    /// module is enabled while this one sits at its exit (state 0), judged
    /// on the pre-link state, which is what the carry chain taps in
    /// hardware.
    pub fn step(&self, composed: u32, input: u64, group: u8) -> u32 {
        with_module_count!(self.modules.len(), Q => self.step_n::<Q>(composed, input, group))
    }

    /// [`AddedStg::step`] with the module count `Q` fixed at compile time
    /// (`Q` must equal [`AddedStg::module_count`]). Every module reads
    /// only pre-step state — its own and its previous module's states
    /// are one 6-bit field of `composed`, its carry enable the bits below
    /// — so no iteration depends on another and the loop unrolls. Callers
    /// stepping many times pick `Q` once through `with_module_count!`.
    ///
    /// Module 0 is always enabled and has no links: one ring step. The
    /// modules above are enabled only while module 0 sits at its exit,
    /// one step in eight on a random walk, so the common path is one
    /// byte lookup per module.
    #[inline(always)]
    pub(crate) fn step_n<const Q: usize>(&self, composed: u32, input: u64, group: u8) -> u32 {
        debug_assert_eq!(Q, self.modules.len(), "step_n instantiated for this machine");
        let b = self.input_bits;
        let v = (input & ((1u64 << b) - 1)) as usize;
        let salt = u32::from(group) & STATE_MASK;
        // One bounds check per table and step: every index below is in
        // range by construction.
        let ring = &self.tables.ring[v * Q..][..Q];
        let links = &self.tables.link[v * (Q - 1) * LINK_ROW..][..(Q - 1) * LINK_ROW];
        let linked = |i: usize| {
            let at = (composed >> (MODULE_BITS * (i - 1))) as usize & (LINK_ROW - 1);
            u32::from(links[(i - 1) * LINK_ROW + at])
        };
        let mut next = perm_apply(ring[0], (composed & STATE_MASK) ^ salt) ^ salt;
        if composed & STATE_MASK != 0 {
            for i in 1..Q {
                next |= linked(i) << (MODULE_BITS * i);
            }
        } else {
            for (i, &perm) in ring.iter().enumerate().skip(1) {
                let shift = MODULE_BITS * i;
                let s = linked(i);
                let enabled = composed & ((1u32 << shift) - 1) == 0;
                let ns = if enabled {
                    perm_apply(perm, s ^ salt) ^ salt
                } else {
                    s
                };
                next |= ns << shift;
            }
        }
        next
    }

    /// The unique predecessor of `composed` under input `input` and group
    /// `group`: `step(step_inv(t, v, g), v, g) == t`. Modules are inverted
    /// low to high, which works because module `i`'s carry enable and
    /// cross-link condition read only lower modules' pre-step states —
    /// recovered before module `i` is reached.
    pub fn step_inv(&self, composed: u32, input: u64, group: u8) -> u32 {
        with_module_count!(self.modules.len(), Q => self.step_inv_n::<Q>(composed, input, group))
    }

    /// [`AddedStg::step_inv`] with the module count `Q` fixed at compile
    /// time, as [`AddedStg::step_n`] is for [`AddedStg::step`]. Module
    /// `i`'s enable and link condition wait for module `i − 1`'s
    /// predecessor, so unlike the forward step the iterations form a
    /// chain; a constant `Q` still unrolls it and drops the loop counter.
    #[inline(always)]
    fn step_inv_n<const Q: usize>(&self, composed: u32, input: u64, group: u8) -> u32 {
        debug_assert_eq!(Q, self.modules.len(), "step_inv_n instantiated for this machine");
        let b = self.input_bits;
        let v = (input & ((1u64 << b) - 1)) as usize;
        let salt = u32::from(group) & STATE_MASK;
        let row = &self.tables.inv[v * Q * MODULE_STATES..][..Q * MODULE_STATES];
        let mut pred = 0u32;
        let mut enabled = true;
        let mut prev = 0usize;
        for i in 0..Q {
            let shift = MODULE_BITS * i;
            let ns = (composed >> shift) & STATE_MASK;
            let e = row[i * MODULE_STATES + prev];
            let linked = if enabled {
                perm_apply((e >> 32) as Perm, ns ^ salt) ^ salt
            } else {
                ns
            };
            let s = perm_apply(e as Perm, linked);
            pred |= s << shift;
            enabled &= s == 0;
            prev = s as usize;
        }
        pred
    }

    /// Whether the composed step is a bijection for the given input/group —
    /// the stolen-key no-transfer guarantee. Checked exhaustively.
    ///
    /// Test oracle: `composed_step_is_a_bijection` (this file) checks every
    /// input and group of several locks against it.
    pub fn step_is_bijective(&self, input: u64, group: u8) -> bool {
        let n = self.state_count();
        let mut seen = vec![false; n];
        for st in 0..n as u32 {
            let t = self.step(st, input, group) as usize;
            if seen[t] {
                return false;
            }
            seen[t] = true;
        }
        true
    }

    /// Distance (in cycles) from every composed state to the exit under
    /// group `group`. `usize::MAX` marks unreachable states (none exist for
    /// well-formed builds; asserted in tests).
    pub fn distances_to_exit(&self, group: u8) -> Vec<usize> {
        self.distances_to_exit_where(group, 0..1u64 << self.input_bits, |_, _| true, |_, _| {})
    }

    /// [`AddedStg::distances_to_exit`] over the edges `s → step(s, v)` with
    /// `v` among `inputs`, `s` not a fixed point and `keep(s, v)` true. One
    /// reverse BFS from the exit: every per-input step is a bijection, so
    /// `step_inv(u, v)` is the only state that input `v` moves onto `u`,
    /// and no adjacency list is needed.
    ///
    /// `found(s, v)` is told each state as it is reached, with the input
    /// of the edge that reached it. With `inputs` ascending, `v` is the
    /// least input on any of `s`'s shortest paths to the exit.
    pub(crate) fn distances_to_exit_where(
        &self,
        group: u8,
        inputs: impl Iterator<Item = u64> + Clone,
        keep: impl Fn(u32, u64) -> bool,
        found: impl FnMut(u32, u64),
    ) -> Vec<usize> {
        with_module_count!(
            self.modules.len(),
            Q => self.distances_to_exit_n::<Q>(group, inputs, keep, found)
        )
    }

    /// [`AddedStg::distances_to_exit_where`] stepping with
    /// [`AddedStg::step_inv_n`], so the module count is chosen once per
    /// search rather than once per edge.
    fn distances_to_exit_n<const Q: usize>(
        &self,
        group: u8,
        inputs: impl Iterator<Item = u64> + Clone,
        keep: impl Fn(u32, u64) -> bool,
        mut found: impl FnMut(u32, u64),
    ) -> Vec<usize> {
        let exit = self.exit_state();
        let mut dist = vec![usize::MAX; self.state_count()];
        dist[exit as usize] = 0;
        let mut frontier = vec![exit];
        let mut d = 0;
        // Level by level and input-major, so that one input's table
        // entries stay cached across the whole frontier; BFS distances do
        // not depend on the order edges are explored in.
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for v in inputs.clone() {
                for &u in &frontier {
                    let p = self.step_inv_n::<Q>(u, v, group);
                    if p != u && dist[p as usize] == usize::MAX && keep(p, v) {
                        dist[p as usize] = d;
                        found(p, v);
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Several *distinct* input sequences from `start` to the exit:
    /// distance-guided randomized walks exploiting the cross-link cycles.
    pub fn diversified_sequences(
        &self,
        start: u32,
        group: u8,
        count: usize,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        let dist = self.distances_to_exit(group);
        if dist[start as usize] == usize::MAX {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let n_inputs = 1u64 << self.input_bits;
        let max_len = 4 * dist[start as usize] + 64;
        let mut found: Vec<Vec<u64>> = Vec::new();
        'outer: for attempt in 0..count * 25 {
            if found.len() >= count {
                break;
            }
            let slack_allowed = attempt / count.max(1);
            let mut s = start;
            let mut seq = Vec::new();
            while !self.is_exit(s) {
                if seq.len() >= max_len {
                    continue 'outer;
                }
                let mut descend: Vec<u64> = Vec::new();
                let mut sideways: Vec<u64> = Vec::new();
                for v in 0..n_inputs {
                    let t = self.step(s, v, group);
                    match dist[t as usize] {
                        usize::MAX => {}
                        d if d < dist[s as usize] => descend.push(v),
                        d if d <= dist[s as usize] && t != s => sideways.push(v),
                        _ => {}
                    }
                }
                let wander = slack_allowed > 0 && !sideways.is_empty() && rng.random_bool(0.25);
                let pool = if wander || descend.is_empty() { &sideways } else { &descend };
                if pool.is_empty() {
                    continue 'outer;
                }
                let v = pool[rng.random_range(0..pool.len())];
                seq.push(v);
                s = self.step(s, v, group);
            }
            if !found.contains(&seq) {
                found.push(seq);
            }
        }
        found
    }

    /// Exports the composed machine as an explicit [`hwm_fsm::Stg`] (one
    /// transition per (state, input value)). Only sensible for small `q`;
    /// used for cycle counting and cross-validation.
    ///
    /// # Errors
    ///
    /// Returns [`MeteringError::InvalidOptions`] when the machine exceeds
    /// `max_states`.
    pub fn to_explicit_stg(&self, group: u8, max_states: usize) -> Result<hwm_fsm::Stg, MeteringError> {
        let n = self.state_count();
        if n > max_states {
            return Err(MeteringError::InvalidOptions {
                reason: format!("{n} states exceed explicit budget {max_states}"),
            });
        }
        let mut stg = hwm_fsm::Stg::new(self.input_bits, 1);
        stg.set_name(format!("added{}x{}", self.state_bits(), self.input_bits));
        for s in 0..n {
            stg.add_state(format!("a{s}"));
        }
        let n_inputs = 1u64 << self.input_bits;
        for s in 0..n as u32 {
            for v in 0..n_inputs {
                let t = self.step(s, v, group);
                let out = if self.is_exit(s) { "1" } else { "0" };
                stg.add_transition(
                    hwm_fsm::StateId::from_index(s as usize),
                    Cube::from_minterm_u64(v, self.input_bits),
                    hwm_fsm::StateId::from_index(t as usize),
                    out.parse().expect("valid"),
                )
                .expect("widths consistent");
            }
        }
        stg.set_reset(hwm_fsm::StateId::from_index(self.exit_state() as usize));
        Ok(stg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn added(q: usize, seed: u64) -> AddedStg {
        AddedStg::build(q, 3, 2, 2, seed).unwrap()
    }

    /// The composed step from first principles: cross-links through
    /// [`CrossLink::apply`] in declaration order, then the salt-conjugated
    /// [`Module3::next`] of every enabled module.
    fn reference_step(a: &AddedStg, composed: u32, v: u64, group: u8) -> u32 {
        let mut states = [0u8; MAX_MODULES];
        for (i, st) in states.iter_mut().enumerate().take(a.module_count()) {
            *st = a.module_state(composed, i);
        }
        let salt = group & 7;
        let mut next = 0u32;
        let mut enabled = true;
        for (i, m) in a.modules().iter().enumerate() {
            let mut s = states[i];
            for l in a.links() {
                if i > 0
                    && l.module == i
                    && states[i - 1] == l.requires_prev_at
                    && l.input.covers_minterm_u64(v)
                {
                    s = l.apply(s);
                }
            }
            let ns = if enabled { m.next(s ^ salt, v) ^ salt } else { s };
            next |= u32::from(ns) << (MODULE_BITS * i);
            enabled = enabled && states[i] == m.exit();
        }
        next
    }

    /// Every state of a machine with at most 512, otherwise a sample:
    /// for each carry depth `k`, two states whose low `k` modules sit
    /// at their exits (so the carry enables every module in turn), the
    /// exit among them.
    fn states_to_check(a: &AddedStg, rng: &mut StdRng) -> Vec<u32> {
        let n = a.state_count() as u32;
        if n <= 512 {
            return (0..n).collect();
        }
        (0..=a.module_count())
            .flat_map(|k| [k; 2])
            .map(|k| rng.random_range(0..n) & !((1u32 << (MODULE_BITS * k)) - 1))
            .collect()
    }

    #[test]
    fn table_step_matches_reference_and_inverts() {
        // Every module count the unrolled step is instantiated for, at
        // every input width, under every salt.
        for q in 1..=MAX_MODULES {
            for b in 1..=8 {
                let a = AddedStg::build(q, b, 2, 2, 100 + (q * 10 + b) as u64).unwrap();
                let mut rng = StdRng::seed_from_u64(q as u64);
                for group in 0..8u8 {
                    for s in states_to_check(&a, &mut rng) {
                        for v in 0..1u64 << b {
                            let t = a.step(s, v, group);
                            let at = || format!("q {q} b {b} g {group} s {s} v {v}");
                            assert_eq!(t, reference_step(&a, s, v, group), "{}", at());
                            assert_eq!(a.step_inv(t, v, group), s, "{}", at());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_tables_are_no_larger_than_one_u64_per_module_state_and_input() {
        for q in 1..=MAX_MODULES {
            for b in 1..=8 {
                let a = AddedStg::build(q, b, 2, 2, 1).unwrap();
                let packed = (q * MODULE_STATES * std::mem::size_of::<u64>()) << b;
                assert!(a.tables.forward_bytes() <= packed, "q {q} b {b}");
            }
        }
        // 5 modules at 8 input bits: 256 rows of 4 × 64 link bytes and
        // 5 ring maps of 4 bytes.
        let a = AddedStg::build(5, 8, 2, 2, 1).unwrap();
        assert_eq!(a.tables.forward_bytes(), 70_656);
    }

    #[test]
    fn quick_reachability_check_agrees_with_the_full_bfs() {
        let reaches = |d: Vec<usize>| d.iter().all(|&d| d != usize::MAX);
        let filters: [fn(u64) -> bool; 4] =
            [|_| true, |v| v & 1 == 0, |v| v & 6 != 6, |v| v < 12];
        let locks = [(3usize, 3usize, 1u64), (3, 8, 2), (4, 6, 3), (2, 8, 4), (3, 5, 5)];
        for (q, b, seed) in locks {
            let a = AddedStg::build(q, b, 2, 2, seed).unwrap();
            for group in [0u8, 5] {
                for usable in filters {
                    let every = (0..1u64 << b).filter(|&v| usable(v));
                    let full =
                        reaches(a.distances_to_exit_where(group, every, |_, _| true, |_, _| {}));
                    let quick_first = a.all_reach_exit(group, usable, |_, _| true);
                    assert_eq!(quick_first, full, "q {q} b {b}");
                }
                // Every edge under a quick input vetoed: the quick pass
                // fails, and the pass over every input must decide.
                let quick: Vec<u64> = a.spread_inputs().take(QUICK_INPUTS).collect();
                let keep = |_: u32, v: u64| !quick.contains(&v);
                let full = reaches(a.distances_to_exit_where(group, 0..1u64 << b, keep, |_, _| {}));
                assert_eq!(a.all_reach_exit(group, |_| true, keep), full, "q {q} b {b}");
                // With 3 input bits every input is vetoed.
                assert_eq!(full, b > 3, "q {q} b {b}");
            }
        }
    }

    #[test]
    fn state_space_size() {
        let a = added(4, 1);
        assert_eq!(a.state_bits(), 12);
        assert_eq!(a.state_count(), 4096);
    }

    #[test]
    fn every_state_reaches_exit() {
        for seed in 0..5 {
            let a = added(3, seed);
            let dist = a.distances_to_exit(0);
            assert!(
                dist.iter().all(|&d| d != usize::MAX),
                "seed {seed}: some state cannot reach the exit"
            );
        }
    }

    #[test]
    fn diversified_sequences_distinct_and_valid() {
        let a = added(3, 4);
        let start = 123u32;
        let keys = a.diversified_sequences(start, 0, 4, 9);
        assert!(keys.len() >= 2, "need multiple keys, got {}", keys.len());
        for k in &keys {
            let mut s = start;
            for &v in k {
                s = a.step(s, v, 0);
            }
            assert!(a.is_exit(s));
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn group_changes_trajectories() {
        let a = added(4, 5);
        let mut diverged = false;
        for start in [17u32, 200, 3000] {
            let mut s0 = start;
            let mut s1 = start;
            for v in 0..32u64 {
                s0 = a.step(s0, v % 8, 0);
                s1 = a.step(s1, v % 8, 3);
                if s0 != s1 {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "group salt must alter dynamics");
    }

    #[test]
    fn exit_reachable_under_all_groups() {
        let a = added(3, 6);
        for group in 0..8u8 {
            let dist = a.distances_to_exit(group);
            assert!(
                dist.iter().all(|&d| d != usize::MAX),
                "group {group}: exit unreachable from some state"
            );
        }
    }

    #[test]
    fn explicit_stg_matches_step() {
        let a = added(2, 7);
        let stg = a.to_explicit_stg(0, 100).unwrap();
        assert_eq!(stg.state_count(), 64);
        for s in 0..64u32 {
            for v in 0..8u64 {
                let (t, _) = stg
                    .step(
                        hwm_fsm::StateId::from_index(s as usize),
                        &hwm_logic::Bits::from_u64(v, 3),
                    )
                    .expect("complete");
                assert_eq!(t.index() as u32, a.step(s, v, 0));
            }
        }
    }

    #[test]
    fn explicit_stg_budget_enforced() {
        let a = added(4, 8);
        assert!(a.to_explicit_stg(0, 100).is_err());
    }

    #[test]
    fn invalid_options_rejected() {
        assert!(AddedStg::build(0, 3, 2, 2, 1).is_err());
        assert!(AddedStg::build(2, 0, 2, 2, 1).is_err());
        assert!(AddedStg::build(2, 9, 2, 2, 1).is_err());
        assert!(AddedStg::build(11, 3, 2, 2, 1).is_err());
    }

    #[test]
    fn composed_step_is_a_bijection() {
        // The stolen-key no-transfer guarantee: for every input and group,
        // the composed map permutes the state space.
        for seed in 0..4 {
            let a = added(2, 40 + seed);
            for input in 0..8u64 {
                for group in [0u8, 3, 7] {
                    assert!(
                        a.step_is_bijective(input, group),
                        "seed {seed}, input {input}, group {group}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_states_never_coalesce_under_any_sequence() {
        // Direct statement of the guarantee: two different start states fed
        // the same inputs stay different forever.
        let a = added(3, 44);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let s0 = rng.random_range(0..a.state_count() as u32);
            let mut s1 = rng.random_range(0..a.state_count() as u32);
            while s1 == s0 {
                s1 = rng.random_range(0..a.state_count() as u32);
            }
            let (mut x, mut y) = (s0, s1);
            for _ in 0..5_000 {
                let v = rng.random_range(0..8u64);
                x = a.step(x, v, 0);
                y = a.step(y, v, 0);
                assert_ne!(x, y, "trajectories from {s0} and {s1} coalesced");
            }
        }
    }

    #[test]
    fn random_walk_hitting_time_grows_with_modules() {
        // The heart of Table 3's shape: more added FFs, more brute-force
        // guesses. Measure the median hitting time of a random-input walk.
        let mut rng = StdRng::seed_from_u64(10);
        let mut medians = Vec::new();
        for q in [2usize, 3] {
            let a = added(q, 11);
            let mut times: Vec<usize> = (0..15)
                .map(|_| {
                    let mut s = rng.random_range(0..a.state_count() as u32);
                    let mut steps = 0usize;
                    while !a.is_exit(s) && steps < 2_000_000 {
                        s = a.step(s, rng.random_range(0..8), 0);
                        steps += 1;
                    }
                    steps
                })
                .collect();
            times.sort_unstable();
            medians.push(times[times.len() / 2]);
        }
        assert!(
            medians[1] > 3 * medians[0],
            "hitting time should grow sharply with modules: {medians:?}"
        );
    }
}
