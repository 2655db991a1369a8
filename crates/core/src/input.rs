//! Grouping problem input.

use nbiot_phy::CoverageClass;
use nbiot_rrc::InactivityTimer;
use nbiot_time::{CycleLadder, PagingConfig, PagingSchedule, SimDuration, SimInstant, UeId};
use nbiot_traffic::{ClassId, DeviceId, DeviceProfile, Population};

use crate::GroupingError;

/// Tunable parameters of a grouping problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GroupingParams {
    /// When the multicast content becomes available at the eNB.
    pub start: SimInstant,
    /// The RRC inactivity timer `TI`.
    pub ti: InactivityTimer,
    /// Optional override of the single-transmission instant `t` used by
    /// DA-SC and DR-SI; defaults to `start + 2·maxDRX` (the paper's
    /// minimum).
    pub transmission_time: Option<SimInstant>,
}

impl Default for GroupingParams {
    fn default() -> Self {
        GroupingParams {
            start: SimInstant::ZERO,
            ti: InactivityTimer::default(),
            transmission_time: None,
        }
    }
}

/// A fully resolved grouping problem: the device group, their paging
/// schedules, and the parameters.
///
/// Device attributes are stored **struct-of-arrays** (one column per
/// attribute, all in device order), mirroring
/// [`Population`]'s layout: campaign execution walks only the columns it
/// needs (`ues` for recipient identity, `paging_configs` for PO math) and
/// building an input from a population is five column clones, not n
/// struct copies. The row view [`GroupingInput::device`] /
/// [`GroupingInput::iter`] materializes a [`DeviceProfile`] on demand.
#[derive(Debug, Clone)]
pub struct GroupingInput {
    ids: Vec<DeviceId>,
    ues: Vec<UeId>,
    classes: Vec<ClassId>,
    pagings: Vec<PagingConfig>,
    report_intervals: Vec<SimDuration>,
    /// Coverage-enhancement class per device, resolved from the
    /// population's class-level table — the airtime weight column the
    /// cost-aware DR-SC variant prices windows with.
    coverages: Vec<CoverageClass>,
    schedules: Vec<PagingSchedule>,
    params: GroupingParams,
    max_cycle: SimDuration,
    /// `(id, position)` pairs sorted by id: the identity → device-order
    /// index map, precomputed once so per-campaign execution does no hash
    /// map construction (recipient lists reference devices by identity).
    positions: Vec<(DeviceId, usize)>,
}

impl GroupingInput {
    /// Builds the input from a generated population — a straight clone of
    /// the population's columns, with schedules resolved from the
    /// `pagings`/`ues` pair.
    ///
    /// # Errors
    ///
    /// * [`GroupingError::EmptyGroup`] for an empty population,
    /// * [`GroupingError::TiTooShort`] when `TI` is shorter than the
    ///   shortest standard DRX cycle (DA-SC's feasibility guarantee),
    /// * [`GroupingError::Schedule`] when a paging schedule cannot be
    ///   resolved.
    pub fn from_population(
        pop: &Population,
        params: GroupingParams,
    ) -> Result<GroupingInput, GroupingError> {
        if pop.is_empty() {
            return Err(GroupingError::EmptyGroup);
        }
        Self::validate_ti(&params)?;
        let schedules = pop.schedules()?;
        let max_cycle = pop.max_cycle();
        let ids: Vec<DeviceId> = (0..pop.len()).map(|i| pop.id(i)).collect();
        let positions = Self::index_positions(&ids);
        Ok(GroupingInput {
            ids,
            ues: pop.ues().to_vec(),
            classes: pop.classes().to_vec(),
            pagings: pop.paging_configs().to_vec(),
            report_intervals: pop.report_intervals().to_vec(),
            coverages: pop.classes().iter().map(|&c| pop.coverage_of(c)).collect(),
            schedules,
            params,
            max_cycle,
            positions,
        })
    }

    /// Builds the input from an explicit device list.
    ///
    /// # Errors
    ///
    /// Same as [`GroupingInput::from_population`].
    pub fn from_devices(
        devices: Vec<DeviceProfile>,
        params: GroupingParams,
    ) -> Result<GroupingInput, GroupingError> {
        if devices.is_empty() {
            return Err(GroupingError::EmptyGroup);
        }
        Self::validate_ti(&params)?;
        let schedules = devices
            .iter()
            .map(|d| d.schedule())
            .collect::<Result<Vec<_>, _>>()?;
        let max_cycle = devices
            .iter()
            .map(|d| d.paging.cycle.period())
            .max()
            .expect("non-empty");
        let n = devices.len();
        let mut ids = Vec::with_capacity(n);
        let mut ues = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        let mut pagings = Vec::with_capacity(n);
        let mut report_intervals = Vec::with_capacity(n);
        for d in devices {
            ids.push(d.id);
            ues.push(d.ue);
            classes.push(d.class);
            pagings.push(d.paging);
            report_intervals.push(d.report_interval);
        }
        let positions = Self::index_positions(&ids);
        let coverages = vec![CoverageClass::default(); ids.len()];
        Ok(GroupingInput {
            ids,
            ues,
            classes,
            pagings,
            report_intervals,
            coverages,
            schedules,
            params,
            max_cycle,
            positions,
        })
    }

    fn validate_ti(params: &GroupingParams) -> Result<(), GroupingError> {
        let shortest = SimDuration::from_frames(CycleLadder::FRAMES[0]);
        if params.ti.duration() < shortest {
            return Err(GroupingError::TiTooShort {
                ti_ms: params.ti.duration().as_ms(),
                shortest_cycle_ms: shortest.as_ms(),
            });
        }
        Ok(())
    }

    fn index_positions(ids: &[DeviceId]) -> Vec<(DeviceId, usize)> {
        let mut positions: Vec<(DeviceId, usize)> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        positions.sort_unstable();
        positions
    }

    /// The device-order position of the device with identity `id`, or
    /// `None` when `id` is not part of this group. Binary search over the
    /// precomputed sorted index — no per-lookup hashing, no per-campaign
    /// map construction.
    pub fn position_of(&self, id: DeviceId) -> Option<usize> {
        self.positions
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| self.positions[i].1)
    }

    /// The device at position `i` (cheap: materialized from the columns).
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    #[inline]
    pub fn device(&self, i: usize) -> DeviceProfile {
        DeviceProfile {
            id: self.ids[i],
            ue: self.ues[i],
            class: self.classes[i],
            paging: self.pagings[i],
            report_interval: self.report_intervals[i],
        }
    }

    /// Iterates the group in device order, materializing each row view.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = DeviceProfile> + '_ {
        (0..self.len()).map(|i| self.device(i))
    }

    /// Materializes the whole group as a device list — interop for
    /// callers that edit rows; hot paths should use the column accessors.
    pub fn profiles(&self) -> Vec<DeviceProfile> {
        self.iter().collect()
    }

    /// Device identities, in device order.
    pub fn ids(&self) -> &[DeviceId] {
        &self.ids
    }

    /// Paging identities, in device order.
    pub fn ues(&self) -> &[UeId] {
        &self.ues
    }

    /// Device classes, in device order.
    pub fn classes(&self) -> &[ClassId] {
        &self.classes
    }

    /// Paging configurations, in device order.
    pub fn paging_configs(&self) -> &[PagingConfig] {
        &self.pagings
    }

    /// Report intervals, in device order.
    pub fn report_intervals(&self) -> &[SimDuration] {
        &self.report_intervals
    }

    /// Coverage-enhancement classes, in device order. All
    /// [`CoverageClass::Normal`] for inputs built from explicit device
    /// lists ([`GroupingInput::from_devices`]) — only populations carry a
    /// class-level coverage table.
    pub fn coverages(&self) -> &[CoverageClass] {
        &self.coverages
    }

    /// Paging schedules, in device order.
    pub fn schedules(&self) -> &[PagingSchedule] {
        &self.schedules
    }

    /// The parameters.
    pub fn params(&self) -> &GroupingParams {
        &self.params
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the group is empty (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The longest paging cycle in the group (`maxDRX`).
    pub fn max_cycle(&self) -> SimDuration {
        self.max_cycle
    }

    /// The default single-transmission instant: `start + 2·maxDRX`, the
    /// earliest time by which every device is guaranteed at least one PO
    /// (paper Sec. III-B).
    pub fn default_transmission_time(&self) -> SimInstant {
        self.params.start + self.max_cycle * 2
    }

    /// The effective single-transmission instant `t` for DA-SC/DR-SI.
    ///
    /// # Errors
    ///
    /// [`GroupingError::TransmissionTooEarly`] when an override precedes
    /// the feasible minimum.
    pub fn transmission_time(&self) -> Result<SimInstant, GroupingError> {
        let minimum = self.default_transmission_time();
        match self.params.transmission_time {
            None => Ok(minimum),
            Some(t) if t >= minimum => Ok(t),
            Some(t) => Err(GroupingError::TransmissionTooEarly {
                requested: t,
                minimum,
            }),
        }
    }

    /// The DR-SC search horizon: `[start, start + 2·maxDRX)` — the PO
    /// pattern repeats after `maxDRX` (all cycles are powers of two with a
    /// common origin), so per the paper nothing new appears past twice the
    /// largest cycle.
    pub fn search_horizon(&self) -> nbiot_time::TimeWindow {
        nbiot_time::TimeWindow::new(self.params.start, self.default_transmission_time())
    }

    /// Per-device PO events over the search horizon, the input of every
    /// DR-SC window cover: sparse devices (cycle greater than `TI`) get
    /// their enumerated occasions, dense devices get an empty list plus a
    /// `true` flag (they have a PO in every window).
    pub fn po_events(&self) -> (Vec<Vec<SimInstant>>, Vec<bool>) {
        let ti = self.params.ti.duration();
        let horizon = self.search_horizon();
        self.pagings
            .iter()
            .zip(&self.schedules)
            .map(|(paging, sched)| {
                if paging.cycle.period() <= ti {
                    (Vec::new(), true)
                } else {
                    (sched.pos_in(horizon), false)
                }
            })
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_time::{DrxCycle, EdrxCycle, PagingCycle};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn input(n: usize) -> GroupingInput {
        let pop = TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(5))
            .unwrap();
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    #[test]
    fn empty_group_rejected() {
        let err = GroupingInput::from_devices(vec![], GroupingParams::default()).unwrap_err();
        assert_eq!(err, GroupingError::EmptyGroup);
    }

    #[test]
    fn ti_shorter_than_shortest_cycle_rejected() {
        let pop = TrafficMix::uniform(PagingCycle::Drx(DrxCycle::Rf32))
            .generate(3, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let params = GroupingParams {
            ti: InactivityTimer::new(SimDuration::from_ms(100)),
            ..GroupingParams::default()
        };
        let err = GroupingInput::from_population(&pop, params).unwrap_err();
        assert!(matches!(err, GroupingError::TiTooShort { .. }));
    }

    #[test]
    fn default_t_is_twice_max_cycle() {
        let pop = TrafficMix::uniform(PagingCycle::edrx(EdrxCycle::Hf8))
            .generate(5, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let inp = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        assert_eq!(
            inp.default_transmission_time(),
            SimInstant::ZERO + EdrxCycle::Hf8.duration() * 2
        );
        assert_eq!(
            inp.transmission_time().unwrap(),
            inp.default_transmission_time()
        );
    }

    #[test]
    fn early_override_rejected_late_accepted() {
        let inp = input(10);
        let minimum = inp.default_transmission_time();
        let late = GroupingParams {
            transmission_time: Some(minimum + SimDuration::from_secs(60)),
            ..GroupingParams::default()
        };
        let inp2 = GroupingInput::from_devices(inp.profiles(), late).unwrap();
        assert_eq!(
            inp2.transmission_time().unwrap(),
            minimum + SimDuration::from_secs(60)
        );
        let early = GroupingParams {
            transmission_time: Some(SimInstant::from_ms(1)),
            ..GroupingParams::default()
        };
        let inp3 = GroupingInput::from_devices(inp.profiles(), early).unwrap();
        assert!(matches!(
            inp3.transmission_time(),
            Err(GroupingError::TransmissionTooEarly { .. })
        ));
    }

    #[test]
    fn schedules_align_with_devices() {
        let inp = input(40);
        assert_eq!(inp.len(), inp.schedules().len());
        assert_eq!(inp.len(), 40);
        assert!(!inp.is_empty());
    }

    #[test]
    fn population_and_device_list_construction_agree() {
        // from_population clones columns; from_devices decomposes rows.
        // Both must land on the same input.
        let pop = TrafficMix::ericsson_city()
            .generate(60, &mut StdRng::seed_from_u64(6))
            .unwrap();
        let a = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        let b = GroupingInput::from_devices(pop.profiles(), GroupingParams::default()).unwrap();
        assert_eq!(a.profiles(), b.profiles());
        assert_eq!(a.schedules(), b.schedules());
        assert_eq!(a.max_cycle(), b.max_cycle());
    }

    #[test]
    fn row_view_matches_columns() {
        let inp = input(30);
        for (i, d) in inp.iter().enumerate() {
            assert_eq!(d.id, inp.ids()[i]);
            assert_eq!(d.ue, inp.ues()[i]);
            assert_eq!(d.class, inp.classes()[i]);
            assert_eq!(d.paging, inp.paging_configs()[i]);
            assert_eq!(d.report_interval, inp.report_intervals()[i]);
        }
    }

    #[test]
    fn coverages_resolve_from_class_table() {
        let pop = TrafficMix::heterogeneous_coverage()
            .generate(200, &mut StdRng::seed_from_u64(8))
            .unwrap();
        let inp = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
        assert_eq!(inp.coverages().len(), inp.len());
        for (i, d) in inp.iter().enumerate() {
            assert_eq!(inp.coverages()[i], pop.coverage_of(d.class), "device {i}");
        }
        // Some depth must actually appear in the heterogeneous mix.
        assert!(inp.coverages().iter().any(|&c| c != CoverageClass::Normal));
        // Device-list construction has no class table: all CE0.
        let from_rows =
            GroupingInput::from_devices(pop.profiles(), GroupingParams::default()).unwrap();
        assert!(from_rows
            .coverages()
            .iter()
            .all(|&c| c == CoverageClass::Normal));
    }

    #[test]
    fn position_index_resolves_every_device() {
        let inp = input(40);
        for (i, &id) in inp.ids().iter().enumerate() {
            assert_eq!(inp.position_of(id), Some(i));
        }
        let absent = nbiot_traffic::DeviceId(u32::MAX);
        assert!(inp.ids().iter().all(|&id| id != absent));
        assert_eq!(inp.position_of(absent), None);
    }

    #[test]
    fn position_index_survives_permuted_device_order() {
        let inp = input(20);
        let mut devices = inp.profiles();
        devices.reverse();
        let permuted = GroupingInput::from_devices(devices, *inp.params()).unwrap();
        for (i, &id) in permuted.ids().iter().enumerate() {
            assert_eq!(permuted.position_of(id), Some(i));
        }
    }
}
