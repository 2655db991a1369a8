//! Generated device populations.
//!
//! # Data layout
//!
//! [`Population`] stores its devices in **struct-of-arrays** form: one
//! parallel column per device attribute (`ues`, `classes`, `pagings`,
//! `report_intervals`) plus an interned class-name table shared by every
//! device of a class. The columnar core is what makes the massive-n tier
//! (10^5–10^6 devices) affordable: hot loops touch only the column they
//! need (e.g. schedule resolution reads `pagings`/`ues` and never drags
//! class names or report intervals through the cache), and cloning a
//! population for a churn epoch is a handful of `memcpy`s instead of n
//! struct moves. The row view [`DeviceProfile`] is retained as a cheap
//! by-value accessor ([`Population::device`], [`Population::iter`]); it
//! materializes on demand from the columns and costs only register work.
//!
//! Device ids are *not* stored as a column: for generated populations they
//! are the row index. Churn can break that (departures compact rows,
//! arrivals append fresh ids), so a population carries an optional `ids`
//! column that is only allocated once the identity map diverges from the
//! row index ([`Population::push`] handles the transition).

use core::fmt;

use nbiot_phy::CoverageClass;
use nbiot_time::{PagingConfig, PagingSchedule, SimDuration, TimeError, UeId};

/// Index of a device within its population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// The index as `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Index of a device class within its mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[cfg_attr(feature = "serde", serde(transparent))]
pub struct ClassId(pub usize);

/// One generated device — the row view over [`Population`]'s columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DeviceProfile {
    /// Population index.
    pub id: DeviceId,
    /// Paging identity (drives PO phase).
    pub ue: UeId,
    /// Class this device was sampled from.
    pub class: ClassId,
    /// Negotiated paging configuration.
    pub paging: PagingConfig,
    /// Mean background uplink reporting interval.
    pub report_interval: SimDuration,
}

impl DeviceProfile {
    /// Resolves this device's paging-occasion schedule.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures (cannot happen for
    /// populations generated from a validated [`crate::TrafficMix`]).
    pub fn schedule(&self) -> Result<PagingSchedule, TimeError> {
        PagingSchedule::new(&self.paging, self.ue)
    }
}

/// A generated population of devices, tied to the mix it came from.
///
/// Struct-of-arrays storage (see the module docs): parallel columns plus
/// an interned class-name table. The row view is [`Population::device`] /
/// [`Population::iter`]; the columns are exposed directly
/// ([`Population::ues`], [`Population::paging_configs`], …) for hot loops
/// that need only one attribute.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Population {
    mix_name: String,
    class_names: Vec<String>,
    /// Coverage-enhancement class per device class, in class order —
    /// class-level (not per-device) because a deployment's coverage is a
    /// property of where a device model gets installed (basement meters
    /// vs street-level trackers), and keeping it out of the per-device
    /// columns keeps the massive-n tier's memory footprint unchanged.
    class_coverages: Vec<CoverageClass>,
    /// Identity column; `None` while every device's id equals its row
    /// index (the generated-population common case), allocated lazily the
    /// first time an id diverges.
    ids: Option<Vec<DeviceId>>,
    ues: Vec<UeId>,
    classes: Vec<ClassId>,
    pagings: Vec<PagingConfig>,
    report_intervals: Vec<SimDuration>,
}

impl Population {
    /// Creates a population from an explicit device list (normally via
    /// [`crate::TrafficMix::generate`], which builds the columns
    /// directly).
    pub fn new(
        mix_name: String,
        class_names: Vec<String>,
        devices: Vec<DeviceProfile>,
    ) -> Population {
        let mut pop = Population::with_capacity(mix_name, class_names, devices.len());
        for d in devices {
            pop.push(d);
        }
        pop
    }

    /// Creates an empty population with pre-sized columns.
    pub fn with_capacity(
        mix_name: String,
        class_names: Vec<String>,
        capacity: usize,
    ) -> Population {
        Population {
            mix_name,
            class_coverages: vec![CoverageClass::default(); class_names.len()],
            class_names,
            ids: None,
            ues: Vec::with_capacity(capacity),
            classes: Vec::with_capacity(capacity),
            pagings: Vec::with_capacity(capacity),
            report_intervals: Vec::with_capacity(capacity),
        }
    }

    /// An empty population sharing this one's mix and class table — the
    /// builder churn evolution fills epoch by epoch.
    pub fn empty_like(&self, capacity: usize) -> Population {
        let mut pop =
            Population::with_capacity(self.mix_name.clone(), self.class_names.clone(), capacity);
        pop.class_coverages = self.class_coverages.clone();
        pop
    }

    /// Appends one device row across the columns. The identity column
    /// stays elided while `device.id` equals the row index.
    pub fn push(&mut self, device: DeviceProfile) {
        let row = self.ues.len();
        match &mut self.ids {
            Some(ids) => ids.push(device.id),
            None if device.id.index() != row => {
                let mut ids: Vec<DeviceId> = (0..row as u32).map(DeviceId).collect();
                ids.push(device.id);
                self.ids = Some(ids);
            }
            None => {}
        }
        self.ues.push(device.ue);
        self.classes.push(device.class);
        self.pagings.push(device.paging);
        self.report_intervals.push(device.report_interval);
    }

    /// Removes the device at row `i`, shifting later rows down, and
    /// returns the removed row view.
    ///
    /// The identity column is materialized first (later rows keep their
    /// ids while their row indices shift) and re-elided afterwards when
    /// every remaining id equals its row index again — so a population
    /// edited row by row stays *bit-identical* to one built fresh from
    /// the surviving devices, which is what the service replay-equivalence
    /// contract compares.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn remove_row(&mut self, i: usize) -> DeviceProfile {
        let removed = self.device(i);
        if self.ids.is_none() {
            self.ids = Some((0..self.ues.len() as u32).map(DeviceId).collect());
        }
        let ids = self.ids.as_mut().expect("materialized above");
        ids.remove(i);
        self.ues.remove(i);
        self.classes.remove(i);
        self.pagings.remove(i);
        self.report_intervals.remove(i);
        if ids.iter().enumerate().all(|(row, id)| id.index() == row) {
            self.ids = None;
        }
        removed
    }

    /// Replaces the paging identity of the device at row `i` (a handover:
    /// the device re-registers under a fresh identity, moving its paging
    /// occasions).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn set_ue(&mut self, i: usize, ue: UeId) {
        self.ues[i] = ue;
    }

    /// The row currently holding device `id`, or `None` when no such
    /// device is present.
    pub fn position_of(&self, id: DeviceId) -> Option<usize> {
        match &self.ids {
            Some(ids) => ids.iter().position(|&d| d == id),
            None => (id.index() < self.len()).then(|| id.index()),
        }
    }

    /// Name of the generating mix.
    pub fn mix_name(&self) -> &str {
        &self.mix_name
    }

    /// The device at row `i` (cheap: materialized from the columns).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    #[inline]
    pub fn device(&self, i: usize) -> DeviceProfile {
        DeviceProfile {
            id: self.id(i),
            ue: self.ues[i],
            class: self.classes[i],
            paging: self.pagings[i],
            report_interval: self.report_intervals[i],
        }
    }

    /// The identity of the device at row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> DeviceId {
        match &self.ids {
            Some(ids) => ids[i],
            None => DeviceId(i as u32),
        }
    }

    /// Iterates the devices in row order, materializing each row view.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DeviceProfile> + '_ {
        (0..self.len()).map(|i| self.device(i))
    }

    /// Materializes the whole population as a device list — interop for
    /// callers (tests, ablations) that want to edit rows; hot paths should
    /// use [`Population::iter`] or the column accessors instead.
    pub fn profiles(&self) -> Vec<DeviceProfile> {
        self.iter().collect()
    }

    /// Paging-identity column, in row order.
    pub fn ues(&self) -> &[UeId] {
        &self.ues
    }

    /// Class column, in row order.
    pub fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    /// Paging-configuration column, in row order.
    pub fn paging_configs(&self) -> &[PagingConfig] {
        &self.pagings
    }

    /// Report-interval column, in row order.
    pub fn report_intervals(&self) -> &[SimDuration] {
        &self.report_intervals
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.ues.len()
    }

    /// `true` for an empty population.
    pub fn is_empty(&self) -> bool {
        self.ues.is_empty()
    }

    /// All class names of the generating mix, in class order.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Class name lookup.
    ///
    /// # Panics
    ///
    /// Panics for a [`ClassId`] that does not belong to this population.
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.class_names[class.0]
    }

    /// Coverage-enhancement class per device class, in class order.
    pub fn class_coverages(&self) -> &[CoverageClass] {
        &self.class_coverages
    }

    /// Replaces the per-class coverage table (set by
    /// [`crate::TrafficMix::generate`] from the mix's class specs).
    ///
    /// # Panics
    ///
    /// Panics when the table length does not match the class-name table.
    pub fn set_class_coverages(&mut self, coverages: Vec<CoverageClass>) {
        assert_eq!(
            coverages.len(),
            self.class_names.len(),
            "one coverage entry per class"
        );
        self.class_coverages = coverages;
    }

    /// The coverage-enhancement class of devices in `class`.
    ///
    /// Defaults to [`CoverageClass::Normal`] for an out-of-range id, so
    /// populations deserialized from pre-coverage archives stay usable.
    #[inline]
    pub fn coverage_of(&self, class: ClassId) -> CoverageClass {
        self.class_coverages
            .get(class.0)
            .copied()
            .unwrap_or_default()
    }

    /// The longest paging cycle in the population ("maxDRX" in the paper).
    ///
    /// Returns [`SimDuration::ZERO`] for an empty population.
    pub fn max_cycle(&self) -> SimDuration {
        self.pagings
            .iter()
            .map(|p| p.cycle.period())
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Resolves all paging schedules, in device order — a pure
    /// `pagings`/`ues` column walk.
    ///
    /// # Errors
    ///
    /// Propagates the first schedule-resolution failure.
    pub fn schedules(&self) -> Result<Vec<PagingSchedule>, TimeError> {
        self.pagings
            .iter()
            .zip(&self.ues)
            .map(|(paging, &ue)| PagingSchedule::new(paging, ue))
            .collect()
    }

    /// The sub-population belonging to the named class — the typical
    /// multicast group for a firmware update, which targets one device
    /// model. Devices keep their original [`DeviceId`]s.
    ///
    /// Returns an empty population for an unknown class name.
    pub fn filter_by_class(&self, name: &str) -> Population {
        let mut sub = Population::with_capacity(
            format!("{}:{name}", self.mix_name),
            self.class_names.clone(),
            0,
        );
        sub.class_coverages = self.class_coverages.clone();
        for i in 0..self.len() {
            if self.class_names[self.classes[i].0] == name {
                sub.push(self.device(i));
            }
        }
        sub
    }
}

impl fmt::Display for Population {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices from mix {} (max cycle {})",
            self.len(),
            self.mix_name,
            self.max_cycle()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrafficMix;
    use nbiot_time::{EdrxCycle, PagingCycle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize) -> Population {
        TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(11))
            .unwrap()
    }

    #[test]
    fn max_cycle_reflects_longest_device() {
        let mix = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf32));
        let p = mix.generate(10, &mut StdRng::seed_from_u64(0)).unwrap();
        assert_eq!(p.max_cycle(), EdrxCycle::Hf32.duration());
    }

    #[test]
    fn empty_population_max_cycle_is_zero() {
        let p = Population::new("empty".into(), vec![], vec![]);
        assert_eq!(p.max_cycle(), SimDuration::ZERO);
        assert!(p.is_empty());
    }

    #[test]
    fn schedules_resolve_for_generated_population() {
        let p = pop(300);
        let schedules = p.schedules().unwrap();
        assert_eq!(schedules.len(), 300);
        // The column walk must match the per-row resolution.
        for (i, sched) in schedules.iter().enumerate() {
            assert_eq!(sched, &p.device(i).schedule().unwrap());
        }
    }

    #[test]
    fn device_ids_are_sequential() {
        let p = pop(50);
        for (i, d) in p.iter().enumerate() {
            assert_eq!(d.id.index(), i);
            assert_eq!(p.id(i), d.id);
        }
    }

    #[test]
    fn row_view_matches_columns() {
        let p = pop(80);
        for (i, d) in p.iter().enumerate() {
            assert_eq!(d.ue, p.ues()[i]);
            assert_eq!(d.class, p.classes()[i]);
            assert_eq!(d.paging, p.paging_configs()[i]);
            assert_eq!(d.report_interval, p.report_intervals()[i]);
        }
        assert_eq!(p.profiles().len(), 80);
    }

    #[test]
    fn aos_and_columnar_construction_agree() {
        // Population::new (AoS entry) and push-by-push construction must
        // land on the same columns.
        let p = pop(60);
        let rebuilt = Population::new(
            p.mix_name().to_string(),
            p.class_names().to_vec(),
            p.profiles(),
        );
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn id_column_materializes_on_divergence() {
        // Pushing rows whose ids match the row index keeps the identity
        // column elided; the first divergent id materializes it without
        // losing earlier identities.
        let src = pop(10);
        let mut p = src.empty_like(4);
        p.push(src.device(0));
        p.push(src.device(1));
        let mut stray = src.device(7); // id 7 at row 2: diverges
        stray.id = DeviceId(7);
        p.push(stray);
        assert_eq!(p.id(0), DeviceId(0));
        assert_eq!(p.id(1), DeviceId(1));
        assert_eq!(p.id(2), DeviceId(7));
        assert_eq!(p.device(2).ue, src.device(7).ue);
    }

    #[test]
    fn remove_row_keeps_later_identities_and_reelides() {
        let src = pop(6);
        let mut p = src.clone();
        // Removing a middle row shifts rows but not identities.
        let removed = p.remove_row(2);
        assert_eq!(removed, src.device(2));
        assert_eq!(p.len(), 5);
        assert_eq!(p.id(2), DeviceId(3));
        assert_eq!(p.device(2), src.device(3));
        assert_eq!(p.position_of(DeviceId(2)), None);
        assert_eq!(p.position_of(DeviceId(5)), Some(4));
        // Removing the now-divergent suffix re-elides the identity column:
        // the population becomes bit-identical to a fresh build over the
        // surviving prefix.
        for row in (2..p.len()).rev() {
            p.remove_row(row);
        }
        let fresh = Population::new(
            src.mix_name().to_string(),
            src.class_names().to_vec(),
            vec![src.device(0), src.device(1)],
        );
        assert_eq!(p, fresh);
    }

    #[test]
    fn remove_last_row_stays_canonical() {
        let src = pop(4);
        let mut p = src.clone();
        p.remove_row(3);
        let fresh = Population::new(
            src.mix_name().to_string(),
            src.class_names().to_vec(),
            (0..3).map(|i| src.device(i)).collect(),
        );
        assert_eq!(p, fresh);
    }

    #[test]
    fn set_ue_and_position_of_agree_with_row_views() {
        let src = pop(8);
        let mut p = src.clone();
        let new_ue = nbiot_time::UeId(0xDEAD_BEEF);
        p.set_ue(5, new_ue);
        assert_eq!(p.device(5).ue, new_ue);
        assert_eq!(p.device(5).id, src.device(5).id);
        for i in 0..p.len() {
            assert_eq!(p.position_of(p.id(i)), Some(i));
        }
        assert_eq!(p.position_of(DeviceId(99)), None);
    }

    #[test]
    fn display_is_informative() {
        let p = pop(5);
        let text = p.to_string();
        assert!(text.contains("5 devices"));
        assert!(text.contains("ericsson-city"));
    }

    #[test]
    fn filter_by_class_keeps_ids_and_membership() {
        let p = pop(400);
        let meters = p.filter_by_class("electricity-meter");
        assert!(!meters.is_empty());
        assert!(meters.len() < p.len());
        for d in meters.iter() {
            assert_eq!(p.class_name(d.class), "electricity-meter");
            // Original identity preserved.
            assert_eq!(p.device(d.id.index()).id, d.id);
        }
        assert!(p.filter_by_class("no-such-class").is_empty());
    }
}
