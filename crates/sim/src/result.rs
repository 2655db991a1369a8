//! Campaign results and aggregate metrics.

use core::fmt;

use nbiot_energy::{PowerProfile, RelativeUptime, UptimeLedger};
use nbiot_phy::{BandwidthLedger, TransferPlan};
use nbiot_time::{SimDuration, TimeWindow};

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
    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.ledgers.len()
    }

    /// Mean per-device light-sleep uptime in ms.
    pub fn mean_light_sleep_ms(&self) -> f64 {
        mean(self.ledgers.iter().map(|l| l.light_sleep().as_ms() as f64))
    }

    /// Mean per-device connected-mode uptime in ms.
    pub fn mean_connected_ms(&self) -> f64 {
        mean(self.ledgers.iter().map(|l| l.connected().as_ms() as f64))
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
        assert_eq!(
            self.ledgers.len(),
            baseline.ledgers.len(),
            "results compare different populations"
        );
        let mut mech_total = UptimeLedger::new();
        let mut base_total = UptimeLedger::new();
        for (mech, base) in self.ledgers.iter().zip(&baseline.ledgers) {
            mech_total.merge(mech);
            base_total.merge(base);
        }
        RelativeUptime::between(&mech_total, &base_total)
    }

    /// Mean per-device energy in millijoules under `profile`.
    pub fn mean_energy_mj(&self, profile: &PowerProfile) -> f64 {
        mean(self.ledgers.iter().map(|l| profile.energy_mj(l)))
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

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
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
