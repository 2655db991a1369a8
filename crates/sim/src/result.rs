//! Campaign results and aggregate metrics.

use core::fmt;

use nbiot_energy::{PowerProfile, RelativeUptime, UptimeLedger};
use nbiot_grouping::MulticastPlan;
use nbiot_phy::{BandwidthLedger, TransferPlan};
use nbiot_time::{SimDuration, TimeWindow};

use crate::engine::CellOutcome;

/// Everything measured while executing one plan on one population.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Mechanism name.
    pub mechanism: String,
    /// Whether the executed plan was standards-compliant.
    pub standards_compliant: bool,
    /// Number of payload transmissions (the Fig. 7 bandwidth proxy).
    pub transmission_count: usize,
    /// Mean device wait between connecting and its transmission.
    pub mean_wait: SimDuration,
    /// Per-device uptime ledgers, in device order.
    pub ledgers: Vec<UptimeLedger>,
    /// Cell downlink airtime bookkeeping.
    pub bandwidth: BandwidthLedger,
    /// Devices whose random access completed after their transmission
    /// started (absorbed by HARQ in practice; should stay near zero).
    pub late_joins: u64,
    /// Random-access procedures that exhausted their attempt budget.
    pub ra_failures: u64,
    /// The common accounting horizon.
    pub horizon: TimeWindow,
    /// The payload transfer footprint.
    pub transfer: TransferPlan,
}

impl CampaignResult {
    /// The result of `plan`'s campaign: its ledgers, in device order, and
    /// what the engine measured at the cell.
    pub(crate) fn new(
        plan: &MulticastPlan,
        ledgers: Vec<UptimeLedger>,
        cell: CellOutcome,
    ) -> CampaignResult {
        CampaignResult {
            mechanism: plan.mechanism.clone(),
            standards_compliant: plan.standards_compliant,
            transmission_count: plan.transmissions.len(),
            mean_wait: plan.mean_wait(),
            ledgers,
            bandwidth: cell.bandwidth,
            late_joins: cell.late_joins,
            ra_failures: cell.ra_failures,
            horizon: cell.horizon,
            transfer: cell.transfer,
        }
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.ledgers.len()
    }

    /// The population sums of the ledgers; `profile` prices only the
    /// energy sum.
    fn sums(&self, profile: &PowerProfile) -> PopulationSums {
        let mut sums = PopulationSums::new(profile);
        for ledger in &self.ledgers {
            sums.add(ledger);
        }
        sums
    }

    /// Mean per-device light-sleep uptime in ms.
    pub fn mean_light_sleep_ms(&self) -> f64 {
        let sum = self
            .ledgers
            .iter()
            .fold(0.0, |sum, l| sum + l.light_sleep().as_ms() as f64);
        mean(sum, self.ledgers.len())
    }

    /// Mean per-device connected-mode uptime in ms.
    pub fn mean_connected_ms(&self) -> f64 {
        self.sums(&PowerProfile::default()).mean_connected_ms()
    }

    /// Relative uptime increase of the whole population versus `baseline` —
    /// the paper's Fig. 6 metric: the ratio of total (equivalently mean)
    /// population uptime, minus one.
    ///
    /// Population totals are used rather than a mean of per-device ratios:
    /// a deep-sleep meter has near-zero baseline light-sleep uptime, so a
    /// per-device ratio degenerates while the aggregate stays meaningful
    /// (and matches the paper's "uptime required compared to unicast"
    /// framing).
    ///
    /// # Panics
    ///
    /// Panics when the two results cover different device counts (they must
    /// come from the same population).
    pub fn mean_relative_vs(&self, baseline: &CampaignResult) -> RelativeUptime {
        let profile = PowerProfile::default();
        self.sums(&profile).relative_vs(&baseline.sums(&profile))
    }

    /// Mean per-device energy in millijoules under `profile`.
    pub fn mean_energy_mj(&self, profile: &PowerProfile) -> f64 {
        self.sums(profile).mean_energy_mj()
    }

    /// Total payload airtime spent on the downlink.
    pub fn data_airtime(&self) -> SimDuration {
        self.transfer.duration * self.transmission_count as u64
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} tx, mean light-sleep {:.1} ms, mean connected {:.1} ms, wait {}",
            self.mechanism,
            self.transmission_count,
            self.mean_light_sleep_ms(),
            self.mean_connected_ms(),
            self.mean_wait,
        )
    }
}

/// Population sums of one campaign's per-device ledgers, added in device
/// order: everything the Fig. 6 metric and the mean connected uptime and
/// energy read.
///
/// [`CampaignResult`]'s metrics fold its ledgers through
/// [`PopulationSums::add`], and the scenario grid folds the engine's
/// device pass through it directly, without storing a ledger; both paths
/// therefore compute every metric bit for bit alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PopulationSums {
    profile: PowerProfile,
    devices: usize,
    total: UptimeLedger,
    connected_ms: f64,
    energy_mj: f64,
}

impl PopulationSums {
    /// Sums over no device; `profile` prices the energy sum.
    pub(crate) fn new(profile: &PowerProfile) -> PopulationSums {
        PopulationSums {
            profile: *profile,
            devices: 0,
            total: UptimeLedger::new(),
            connected_ms: 0.0,
            energy_mj: 0.0,
        }
    }

    /// Adds the next device's ledger. The float sums depend on the order,
    /// so devices come in device order.
    pub(crate) fn add(&mut self, ledger: &UptimeLedger) {
        self.devices += 1;
        self.total.merge(ledger);
        self.connected_ms += ledger.connected().as_ms() as f64;
        self.energy_mj += self.profile.energy_mj(ledger);
    }

    /// The Fig. 6 metric: the relative increase of the population's total
    /// uptime over `baseline`'s (see [`CampaignResult::mean_relative_vs`]).
    ///
    /// # Panics
    ///
    /// Panics when the two sums cover different device counts.
    pub(crate) fn relative_vs(&self, baseline: &PopulationSums) -> RelativeUptime {
        assert_eq!(
            self.devices, baseline.devices,
            "results compare different populations"
        );
        RelativeUptime::between(&self.total, &baseline.total)
    }

    /// Mean per-device connected-mode uptime in ms.
    pub(crate) fn mean_connected_ms(&self) -> f64 {
        mean(self.connected_ms, self.devices)
    }

    /// Mean per-device energy in millijoules.
    pub(crate) fn mean_energy_mj(&self) -> f64 {
        mean(self.energy_mj, self.devices)
    }
}

/// The mean of `devices` values that sum to `sum`; 0.0 over no device.
fn mean(sum: f64, devices: usize) -> f64 {
    if devices == 0 {
        0.0
    } else {
        sum / devices as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_energy::PowerState;
    use nbiot_phy::{DataSize, NpdschConfig};
    use nbiot_time::SimInstant;

    fn result_with(light_ms: u64, conn_ms: u64) -> CampaignResult {
        let mut ledger = UptimeLedger::new();
        ledger.accumulate(PowerState::LightSleep, SimDuration::from_ms(light_ms));
        ledger.accumulate(
            PowerState::ConnectedReceiving,
            SimDuration::from_ms(conn_ms),
        );
        CampaignResult {
            mechanism: "TEST".to_string(),
            standards_compliant: true,
            transmission_count: 1,
            mean_wait: SimDuration::ZERO,
            ledgers: vec![ledger; 4],
            bandwidth: BandwidthLedger::new(),
            late_joins: 0,
            ra_failures: 0,
            horizon: TimeWindow::new(SimInstant::ZERO, SimInstant::from_secs(10)),
            transfer: NpdschConfig::default().plan_transfer(DataSize::from_kb(1)),
        }
    }

    #[test]
    fn means_over_devices() {
        let r = result_with(100, 400);
        assert_eq!(r.mean_light_sleep_ms(), 100.0);
        assert_eq!(r.mean_connected_ms(), 400.0);
        assert_eq!(r.device_count(), 4);
    }

    #[test]
    fn relative_vs_baseline() {
        let mech = result_with(110, 500);
        let base = result_with(100, 400);
        let rel = mech.mean_relative_vs(&base);
        assert!((rel.light_sleep - 0.10).abs() < 1e-12);
        assert!((rel.connected - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different populations")]
    fn mismatched_populations_panic() {
        let mut a = result_with(1, 1);
        let b = result_with(1, 1);
        a.ledgers.pop();
        let _ = a.mean_relative_vs(&b);
    }

    #[test]
    fn data_airtime_scales_with_transmissions() {
        let mut r = result_with(1, 1);
        let single = r.data_airtime();
        r.transmission_count = 3;
        assert_eq!(r.data_airtime(), single * 3);
    }
}
