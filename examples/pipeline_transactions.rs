//! A producer → transformer → consumer pipeline protected by pseudo
//! recovery points.
//!
//! Three worker threads cooperate on a stream of transactions:
//! `producer` batches inputs, `transformer` enriches them, `consumer`
//! folds them into an account balance. They interact constantly —
//! prime domino territory for asynchronous recovery blocks. With the
//! §4 PRP protocol, every checkpoint in one worker implants pseudo
//! recovery points in the other two, so a failure rolls the pipeline
//! back to a pseudo recovery line instead of to its beginning.
//!
//! Run with: `cargo run --example pipeline_transactions`

use recovery_blocks::core::rollback::RollbackRule;
use recovery_blocks::runtime::RecoveryGroup;

/// Each worker's state: its ledger of applied transaction ids plus a
/// running value.
#[derive(Clone, Debug, PartialEq)]
struct WorkerState {
    applied: Vec<u64>,
    value: i64,
}

impl WorkerState {
    fn new() -> Self {
        WorkerState {
            applied: Vec::new(),
            value: 0,
        }
    }
}

const PRODUCER: usize = 0;
const TRANSFORMER: usize = 1;
const CONSUMER: usize = 2;

fn main() {
    let mut group = RecoveryGroup::spawn_prp(vec![WorkerState::new(); 3]);

    // ── Phase 1: a healthy batch, checkpointed at its end ─────────────
    for txid in 1..=3u64 {
        // Producer creates the transaction, hands it to the transformer.
        group.send(
            PRODUCER,
            TRANSFORMER,
            move |s| {
                s.applied.push(txid);
                s.value += txid as i64;
            },
            move |s| {
                s.applied.push(txid);
                s.value += 2 * txid as i64;
            },
        );
        // Transformer hands the enriched transaction to the consumer.
        group.send(
            TRANSFORMER,
            CONSUMER,
            move |s| s.value += 1,
            move |s| {
                s.applied.push(txid);
                s.value += 10 * txid as i64;
            },
        );
    }
    // The consumer passes its acceptance test and checkpoints; PRPs are
    // implanted in producer and transformer — a pseudo recovery line.
    let rp = group.establish_rp(CONSUMER);
    let committed: Vec<WorkerState> = (0..3).map(|i| group.read_state(i)).collect();
    println!("batch 1 committed at consumer RP #{rp}:");
    for (i, s) in committed.iter().enumerate() {
        println!(
            "  worker {i}: value = {}, applied = {:?}",
            s.value, s.applied
        );
    }

    // ── Phase 2: a poisoned batch ─────────────────────────────────────
    for txid in 4..=5u64 {
        group.send(
            PRODUCER,
            TRANSFORMER,
            move |s| {
                s.applied.push(txid);
                s.value += txid as i64;
            },
            move |s| {
                s.applied.push(txid);
                s.value += 2 * txid as i64;
            },
        );
        group.send(
            TRANSFORMER,
            CONSUMER,
            move |s| s.value += 1,
            move |s| {
                s.applied.push(txid);
                // The consumer's own folding bug: transaction 5 is
                // double-applied — a *local* error.
                let mult = if txid == 5 { 20 } else { 10 };
                s.value += mult * txid as i64;
            },
        );
    }

    // The consumer's acceptance test catches its own corruption: a
    // local error, so the pseudo recovery line of its last RP suffices
    // ("the recovery line formed by RPᵢ and all PRPᵢ's is able to
    // recover these processes even if the error has already
    // propagated").
    let plan = group.recover(CONSUMER, RollbackRule::Prp { local: true });
    println!(
        "\nfailure at consumer, local error: {} of 3 workers rolled back, \
         sup distance = {:.0} logical ticks",
        plan.n_affected(),
        plan.sup_distance()
    );

    let after: Vec<WorkerState> = (0..3).map(|i| group.read_state(i)).collect();
    for (i, s) in after.iter().enumerate() {
        println!(
            "  worker {i}: value = {}, applied = {:?}",
            s.value, s.applied
        );
    }

    // The poisoned transactions are gone from every ledger.
    for s in &after {
        assert!(
            !s.applied.contains(&4) && !s.applied.contains(&5),
            "poisoned transactions must be rolled back: {s:?}"
        );
    }
    // Batch 1 survives everywhere: the consumer restarts from its own
    // real RP and the others from the PRPs implanted at that moment.
    for (i, s) in after.iter().enumerate() {
        assert_eq!(
            s, &committed[i],
            "worker {i} kept its batch-1 state via the pseudo recovery line"
        );
    }

    println!("\npipeline recovered to the pseudo recovery line — replay batch 2 and continue");

    // ── Contrast: the same failure with a *propagated* error ─────────
    // Run the batch again, then recover conservatively: producer and
    // transformer have no real RPs of their own, so the §4 step-3 rule
    // pushes them to their beginnings, and consistency drags the
    // consumer with them. That asymmetry is exactly the cost the paper
    // assigns to un-tested PRP contents.
    for txid in 6..=7u64 {
        group.send(
            PRODUCER,
            TRANSFORMER,
            move |s| s.applied.push(txid),
            move |s| s.applied.push(txid),
        );
        group.send(
            TRANSFORMER,
            CONSUMER,
            move |s| s.value += 1,
            move |s| s.applied.push(txid),
        );
    }
    let conservative = group.recover(CONSUMER, RollbackRule::Prp { local: false });
    println!(
        "propagated-error variant: sup distance = {:.0} ticks (vs {:.0} for the local error)",
        conservative.sup_distance(),
        plan.sup_distance()
    );
    assert!(conservative.sup_distance() >= plan.sup_distance());
    group.shutdown();
}
