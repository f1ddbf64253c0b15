//! End-to-end threaded scenarios spanning rbruntime + rbcore +
//! rbanalysis.

use recovery_blocks::analysis::sync_loss;
use recovery_blocks::core::rollback::RollbackRule;
use recovery_blocks::runtime::RecoveryGroup;
use recovery_blocks::runtime::{run_synchronization, Conversation, RecoveryBlock, SyncParticipant};
use recovery_blocks::sim::{SimRng, StreamId};

#[test]
fn threaded_sync_loss_converges_to_formula() {
    // Run the real protocol many times with exponential y's; the mean
    // measured loss converges to the §3 closed form.
    let mu = [1.5, 1.0, 0.5];
    let mut rng = SimRng::new(4242, StreamId::WORKLOAD);
    let rounds = 300;
    let mut total = 0.0;
    for _ in 0..rounds {
        let parts: Vec<SyncParticipant<u8>> = mu
            .iter()
            .map(|&m| SyncParticipant {
                state: 0,
                y: rng.exp(m),
                stray_messages: vec![],
            })
            .collect();
        total += run_synchronization(parts).loss;
    }
    let mean = total / rounds as f64;
    let want = sync_loss::mean_loss(&mu);
    // 300 threaded rounds: generous tolerance (σ ≈ want).
    assert!(
        (mean - want).abs() < 0.25 * want + 0.3,
        "threaded mean loss {mean} vs formula {want}"
    );
}

#[test]
fn conversation_of_recovery_blocks() {
    // Each participant runs a recovery block inside a conversation:
    // the collective test line forces everyone onto the alternate when
    // one participant's primary fails.
    let conv = Conversation::new(2);
    let results: Vec<(usize, i64)> = std::thread::scope(|s| {
        (0..2)
            .map(|i| {
                let c = conv.clone();
                s.spawn(move || {
                    let mut state: i64 = 100 * (i as i64 + 1);
                    let round = c
                        .participate(&mut state, 2, |st, round| {
                            let block = RecoveryBlock::ensure(move |x: &i64| {
                                // Round-0 primaries produce odd values for
                                // P1 — its acceptance rejects them.
                                x % 2 == 0
                            })
                            .by(move |x: &mut i64| {
                                *x += if i == 1 && round == 0 { 1 } else { 2 };
                                Ok(())
                            });
                            block.execute(st).is_ok()
                        })
                        .unwrap();
                    (round, state)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for (i, (round, state)) in results.iter().enumerate() {
        assert_eq!(*round, 1, "P{i} settles on round 1");
        // Round 0 was rolled back entirely; round 1 adds 2.
        assert_eq!(*state, 100 * (i as i64 + 1) + 2);
    }
}

#[test]
fn prp_group_survives_alternating_failures() {
    let mut g = RecoveryGroup::spawn_prp(vec![0i64, 0, 0]);
    for round in 1..=4 {
        g.establish_rp(round % 3);
        g.send(0, 1, |s| *s += 1, |s| *s += 1);
        g.send(1, 2, |s| *s += 1, |s| *s += 1);
        let failer = (round + 1) % 3;
        let plan = g.recover(failer, RollbackRule::Prp { local: true });
        assert!(plan.rolled_back[failer], "round {round}");
    }
    // All states must be non-negative and bounded by total work.
    for i in 0..3 {
        let s = g.read_state(i);
        assert!((0..=8).contains(&s), "P{i} state {s}");
    }
    g.shutdown();
}

#[test]
fn prp_group_histories_are_consistent_cuts() {
    use recovery_blocks::core::recovery_line::is_consistent_cut;
    let mut g = RecoveryGroup::spawn_prp(vec![0u32, 0, 0, 0]);
    g.establish_rp(0);
    g.send(0, 1, |s| *s += 1, |s| *s += 1);
    g.establish_rp(2);
    g.send(2, 3, |s| *s += 1, |s| *s += 1);
    g.send(1, 2, |s| *s += 1, |s| *s += 1);
    let plan = g.recover(2, RollbackRule::Prp { local: true });
    assert!(is_consistent_cut(g.history(), &plan.restart));
    g.shutdown();
}

#[test]
fn recovery_block_alternate_chain_depth() {
    // A five-deep alternate ladder where only the last rung passes.
    let block = RecoveryBlock::ensure(|x: &u32| *x == 5)
        .by(|x: &mut u32| {
            *x = 1;
            Ok(())
        })
        .else_by(|x: &mut u32| {
            *x = 2;
            Ok(())
        })
        .else_by(|x: &mut u32| {
            *x = 3;
            Ok(())
        })
        .else_by(|x: &mut u32| {
            *x = 4;
            Ok(())
        })
        .else_by(|x: &mut u32| {
            *x = 5;
            Ok(())
        });
    let mut state = 0;
    assert_eq!(block.execute(&mut state), Ok(4));
    assert_eq!(state, 5);
}
