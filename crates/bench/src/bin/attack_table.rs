//! The §6 attack-resilience report: all attacks against a hardened and
//! a deliberately weakened configuration.
//!
//! Usage: `cargo run --release -p hwm-bench --bin attack_table \
//!     [--seed N] [--cap N] [--jobs N] [--profile] [--trace-out PATH]`

use hwm_attacks::{run_all, AttackBudgets};
use hwm_bench::run::BenchRun;
use hwm_fsm::Stg;
use hwm_metering::LockOptions;

fn main() {
    let run = BenchRun::start("attack_table");
    let seed = run.seed();
    let cap: u64 = hwm_bench::num_arg("--cap").unwrap_or(1_000_000);
    hwm_bench::reject_unknown_args();
    // The two campaign configurations are independent work items; run them
    // on up to two workers. A 24-state original: a forced garbage
    // state-code decodes to the reset state with probability ~1/32 instead
    // of ~1/8 for a toy 6-state FSM.
    let configs = [
        (
            LockOptions {
                added_modules: 6, // 18 added FFs: 262,144 states, beyond the
                // default 100k-state redundancy-removal budget
                black_holes: 2,
                group_bits: 2,
                ..LockOptions::default()
            },
            seed,
        ),
        (
            LockOptions {
                added_modules: 2,
                black_holes: 0,
                group_bits: 0,
                ..LockOptions::default()
            },
            seed ^ 1,
        ),
    ];
    let reports = hwm_bench::parallel::try_run_indexed(run.jobs(), configs.len(), |i| {
        let (options, config_seed) = &configs[i];
        run_all(
            Stg::ring_counter(24, 2),
            options.clone(),
            AttackBudgets {
                brute_cap: cap,
                ..AttackBudgets::default()
            },
            *config_seed,
        )
        .map(|r| r.to_string())
    })
    .expect("attack reports");
    println!("{}", reports.join("\n\n"));
    run.finish();
}
