//! The scenario grid folds every campaign's ledgers into population sums
//! during the engine's device pass and stores no ledger; `run_campaign`
//! collects the ledgers, and `CampaignResult` computes the row metrics
//! from them. This test rebuilds single-item shards' rows from
//! `run_campaign` on each item's own seed streams and asserts that the two
//! paths agree bit for bit.

use std::collections::HashMap;

use nbiot_des::SeedSequence;
use nbiot_grouping::{
    GroupingError, GroupingInput, GroupingMechanism, MechanismKind, MulticastPlan, Unicast,
};
use nbiot_phy::{CoverageClass, DataSize, NpdschConfig};
use nbiot_sim::{
    run_campaign, run_scenario_shard, CampaignResult, ItemRows, MechRun, Scenario, ShardSpec,
    SimConfig,
};
use rand::rngs::StdRng;
use rand::RngCore;

/// A mechanism that hands back an already computed plan and draws
/// nothing, so `run_campaign` executes exactly the plan the grid executes.
struct Replay<'a>(&'a MulticastPlan);

impl GroupingMechanism for Replay<'_> {
    fn name(&self) -> String {
        self.0.mechanism.clone()
    }

    fn is_standards_compliant(&self) -> bool {
        self.0.standards_compliant
    }

    fn plan(
        &self,
        _input: &GroupingInput,
        _rng: &mut dyn RngCore,
    ) -> Result<MulticastPlan, GroupingError> {
        Ok(self.0.clone())
    }
}

/// Plans once, then runs one campaign per payload on a clone of the
/// post-plan RNG, as the grid does.
fn plan_and_run(
    mechanism: &dyn GroupingMechanism,
    input: &GroupingInput,
    sims: &[SimConfig],
    rng: &mut StdRng,
) -> (MulticastPlan, Vec<CampaignResult>) {
    let plan = mechanism.plan(input, rng).expect("plan");
    let results = sims
        .iter()
        .map(|sim| run_campaign(&Replay(&plan), input, sim, &mut rng.clone()).expect("campaign"))
        .collect();
    (plan, results)
}

/// Transmissions per deepest-recipient coverage class.
fn coverage_histogram(plan: &MulticastPlan, input: &GroupingInput) -> [u64; 3] {
    let coverage: HashMap<_, _> = input.ids().iter().zip(input.coverages()).collect();
    let mut hist = [0u64; 3];
    for tx in &plan.transmissions {
        let deepest = tx.recipients.iter().map(|id| *coverage[id]).max();
        hist[deepest.unwrap_or_default() as usize] += 1;
    }
    hist
}

/// `(plan_airtime_ms, airtime_vs_count_ratio)` of a histogram under `sim`.
fn airtime_metrics(hist: &[u64; 3], sim: &SimConfig) -> (f64, f64) {
    let ms = |coverage| {
        let npdsch = NpdschConfig {
            coverage,
            ..sim.npdsch
        };
        npdsch.plan_transfer(sim.payload).duration.as_ms()
    };
    let airtime: u64 = CoverageClass::ALL
        .iter()
        .map(|&c| hist[c as usize] * ms(c))
        .sum();
    let estimate = hist.iter().sum::<u64>() * ms(CoverageClass::Normal);
    let ratio = if estimate == 0 {
        0.0
    } else {
        airtime as f64 / estimate as f64
    };
    (airtime as f64, ratio)
}

/// Rebuilds one item's rows from per-device ledgers: the population on
/// stream 0, the baseline on stream 1 and mechanism `i` on stream `2 + i`
/// of the run's seed sequence.
fn replay_item(scenario: &Scenario, item: usize) -> ItemRows {
    let runs = scenario.runs as usize;
    let (n_devices, run) = (scenario.devices[item / runs], item % runs);
    let seq = SeedSequence::new(scenario.master_seed).child(run as u64);
    let population = scenario.mix.generate(n_devices, &mut seq.rng(0)).unwrap();
    let input = GroupingInput::from_population(&population, scenario.grouping).unwrap();
    let sims: Vec<SimConfig> = scenario
        .payloads
        .iter()
        .map(|&payload| scenario.sim.with_payload(payload))
        .collect();
    let baseline = scenario
        .baseline
        .then(|| plan_and_run(&Unicast::new(), &input, &sims, &mut seq.rng(1)));
    let mut rows: ItemRows = vec![Vec::new(); sims.len()];
    for (i, &kind) in scenario.mechanisms.iter().enumerate() {
        let (plan, results) = match &baseline {
            // The grid reuses the baseline for a unicast row.
            Some(base) if kind == MechanismKind::Unicast => base.clone(),
            _ => plan_and_run(
                kind.instantiate().as_ref(),
                &input,
                &sims,
                &mut seq.rng(2 + i as u64),
            ),
        };
        let hist = coverage_histogram(&plan, &input);
        let improvement = |f: fn(&nbiot_grouping::ImprovementStats) -> u32| {
            plan.improvement.as_ref().map_or(0.0, |s| f64::from(f(s)))
        };
        for (p, result) in results.iter().enumerate() {
            let base = baseline.as_ref().map_or(result, |(_, b)| &b[p]);
            let rel = result.mean_relative_vs(base);
            let (plan_airtime_ms, airtime_vs_count_ratio) = airtime_metrics(&hist, &sims[p]);
            rows[p].push(MechRun {
                rel_light_sleep: rel.light_sleep,
                rel_connected: rel.connected,
                transmissions: result.transmission_count as f64,
                plan_airtime_ms,
                airtime_vs_count_ratio,
                mean_wait_s: result.mean_wait.as_secs_f64(),
                mean_connected_s: result.mean_connected_ms() / 1000.0,
                mean_energy_mj: result.mean_energy_mj(&scenario.power),
                ra_failures: result.ra_failures as f64,
                late_joins: result.late_joins as f64,
                regroups: 0.0,
                stale_miss_ratio: 0.0,
                cover_cost_initial: improvement(|s| s.initial_cost),
                cover_cost_final: improvement(|s| s.final_cost),
                improve_moves: improvement(|s| s.moves_accepted),
                improve_budget: improvement(|s| s.budget_spent),
                compliant: result.standards_compliant,
            });
        }
    }
    rows
}

/// Every field of a row as bits, so that a sign or NaN payload counts.
fn bits(row: &MechRun) -> [u64; 17] {
    let MechRun {
        rel_light_sleep,
        rel_connected,
        transmissions,
        plan_airtime_ms,
        airtime_vs_count_ratio,
        mean_wait_s,
        mean_connected_s,
        mean_energy_mj,
        ra_failures,
        late_joins,
        regroups,
        stale_miss_ratio,
        cover_cost_initial,
        cover_cost_final,
        improve_moves,
        improve_budget,
        compliant,
    } = *row;
    [
        rel_light_sleep.to_bits(),
        rel_connected.to_bits(),
        transmissions.to_bits(),
        plan_airtime_ms.to_bits(),
        airtime_vs_count_ratio.to_bits(),
        mean_wait_s.to_bits(),
        mean_connected_s.to_bits(),
        mean_energy_mj.to_bits(),
        ra_failures.to_bits(),
        late_joins.to_bits(),
        regroups.to_bits(),
        stale_miss_ratio.to_bits(),
        cover_cost_initial.to_bits(),
        cover_cost_final.to_bits(),
        improve_moves.to_bits(),
        improve_budget.to_bits(),
        u64::from(compliant),
    ]
}

#[test]
fn folded_grid_rows_equal_rows_rebuilt_from_per_device_ledgers() {
    for baseline in [true, false] {
        let mut scenario = Scenario::builtin("fig6a").expect("registered scenario");
        scenario.devices = vec![1, 2, 40];
        scenario.runs = 1;
        scenario.payloads = vec![DataSize::from_kb(100), DataSize::from_mb(1)];
        scenario.mechanisms = MechanismKind::ALL.to_vec();
        scenario.baseline = baseline;
        scenario.threads = 1;
        let count = scenario.devices.len() as u32;
        for index in 0..count {
            let archive = run_scenario_shard(&scenario, ShardSpec { index, count }).unwrap();
            let [item] = archive.items.as_slice() else {
                panic!("shard {index} holds {} items", archive.items.len());
            };
            let replayed = replay_item(&scenario, item.item);
            assert_eq!(item.rows.len(), replayed.len());
            for (p, (folded, collected)) in item.rows.iter().zip(&replayed).enumerate() {
                assert_eq!(folded.len(), scenario.mechanisms.len());
                assert_eq!(collected.len(), scenario.mechanisms.len());
                for ((kind, a), b) in scenario.mechanisms.iter().zip(folded).zip(collected) {
                    assert_eq!(
                        bits(a),
                        bits(b),
                        "{kind}, {} devices, payload {p}, baseline {baseline}\n\
                         grid:   {a:?}\nreplay: {b:?}",
                        scenario.devices[item.item]
                    );
                }
            }
        }
    }
}
