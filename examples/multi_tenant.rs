//! Multi-tenant serving: many independent analyses on ONE fixed pool.
//!
//! Opens a 2-slot pool, submits six sessions with mixed data types and
//! fair-share weights, injects a worker death into one of them, and shows
//! that every session completes with its own result — the faulted tenant
//! recovers through the standard reassignment path while its neighbors
//! never notice.
//!
//! Run with `cargo run --release --example multi_tenant`.

use std::sync::Arc;

use plf_loadbalance::prelude::*;

fn main() -> Result<(), ServeError> {
    let workers = 2;
    let mut pool = SessionManager::new(workers);
    println!(
        "pool: {} compute slots, strategy {:?}\n",
        pool.worker_count(),
        TenantStrategy::default()
    );

    // Six tenants: alternating pure-DNA and mixed DNA+protein datasets,
    // each with its own alignment, tree and models. The big DNA session
    // gets double weight; session "dna-0" has a worker death injected into
    // its first dispatched op, the initial-likelihood evaluate (a chaos drill
    // through the real machinery).
    let mut handles = Vec::new();
    for i in 0..6u64 {
        let (class, dataset) = if i % 2 == 0 {
            ("dna", paper_simulated(6, 120, 24, 7 + i).generate())
        } else {
            ("mixed", mixed_dna_protein(6, 2, 1, 12, 1007 + i).generate())
        };
        let mut spec = SessionSpec::new(Arc::clone(&dataset.patterns), dataset.tree.clone())
            .label(format!("{class}-{i}"))
            .weight(if i == 0 { 2 } else { 1 });
        if i == 0 {
            spec = spec.inject_worker_fault(workers - 1, 0);
        }
        handles.push(pool.submit(spec)?);
    }

    println!(
        "{:<10} {:>18} {:>18} {:>10} {:>10}",
        "session", "initial lnL", "final lnL", "wall ms", "recoveries"
    );
    for handle in handles {
        let label = handle.label().to_string();
        let outcome = handle.join()?;
        println!(
            "{:<10} {:>18.6} {:>18.6} {:>10.1} {:>10}",
            label,
            outcome.initial_log_likelihood,
            outcome.final_log_likelihood,
            outcome.latency.as_secs_f64() * 1e3,
            outcome.recoveries.len()
        );
        assert!(outcome.final_log_likelihood >= outcome.initial_log_likelihood);
        let expected = usize::from(label == "dna-0");
        assert_eq!(
            outcome.recoveries.len(),
            expected,
            "{label}: recovery leaked across tenants"
        );
    }

    let stats = pool.stats()?;
    println!(
        "\npool ran {} regions on {} compute slots (each session's {} shards on its own \
         thread), {} worker panic(s) — all contained in one tenant",
        stats.ops_dispatched, stats.workers, stats.workers, stats.worker_panics
    );
    assert_eq!(stats.worker_panics, 1);
    pool.shutdown();
    Ok(())
}
