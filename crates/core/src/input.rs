//! Grouping problem input.

use std::fmt;
use std::sync::OnceLock;

use nbiot_phy::CoverageClass;
use nbiot_rrc::InactivityTimer;
use nbiot_time::{CycleLadder, PagingConfig, PagingSchedule, SimDuration, SimInstant, UeId};
use nbiot_traffic::{ClassId, DeviceId, DeviceProfile, Population};

use crate::set_cover::{AnchorInstance, CoverSlot, PoTimeline, WindowCover};
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

impl GroupingParams {
    /// The latest `start` or `transmission_time` a grouping problem
    /// accepts: 2^62 ms, about 146 million years.
    ///
    /// Planning and campaign execution compute instants past these two.
    /// The search horizon ends 2·maxDRX after `start`. The campaign's
    /// accounting horizon ends TI plus the payload airtime after the later
    /// of `transmission_time` and that horizon end. A paging-occasion
    /// lookup past an instant walks at most two eDRX cycles further. maxDRX
    /// and an eDRX cycle are at most 10,485.76 s, below 2^24 ms, so from
    /// this bound every such instant fits in `u64` milliseconds with
    /// 3·2^62 − 2^26 ms left for TI and the payload airtime. The PO
    /// timeline's shifted copies of its first period stay inside the
    /// search horizon, so they fit too.
    pub const LATEST_INSTANT: SimInstant = SimInstant::from_ms(1 << 62);

    /// The longest inactivity timer `TI` a grouping problem accepts:
    /// 2^62 ms.
    ///
    /// Window ends `a + TI` and the campaign's accounting horizon add TI
    /// to instants that [`GroupingParams::LATEST_INSTANT`] bounds, which
    /// leaves 3·2^62 − 2^26 ms for TI plus the payload airtime. This bound
    /// takes 2^62 ms of that budget and leaves 2^63 − 2^26 ms for the
    /// airtime, so no TI-shifted instant wraps `u64` milliseconds.
    pub const LONGEST_TI: SimDuration = SimDuration::from_ms(1 << 62);
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
///
/// The input also holds the planning state the DR-SC family shares: the
/// [`PoTimeline`] over schedule classes (the only PO enumeration, also
/// read by the campaign engine's PO count once built), the greedy count
/// cover ([`crate::DrSc`]'s plan, [`crate::DrScTabu`]'s start cover and
/// [`crate::DrScWeighted`]'s count partner) and the deduplicated
/// [`AnchorInstance`] (tabu's search space and the weighted cover's
/// instance). Each is computed on first use and then read by every later
/// plan or campaign, from any thread; an input planned by DA-SC, DR-SI,
/// unicast or SC-PTM alone never computes the cover or the instance. The
/// input has no mutators, so none of them can go stale.
#[derive(Clone)]
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
    /// The identity → device-order index, built once, through which every
    /// plan recipient resolves: a dense table when the id span is at most
    /// four ids a device (generated fleets, whose ids are their rows),
    /// sorted pairs otherwise (event-log ids, which nothing bounds).
    positions: PositionIndex,
    /// The PO timeline over schedule classes, built on first use.
    po_timeline: OnceLock<PoTimeline>,
    /// DR-SC's count cover, solved on first use.
    count_cover: OnceLock<Result<Vec<CoverSlot>, GroupingError>>,
    /// The deduplicated anchor-window instance, built on first use.
    anchor_instance: OnceLock<AnchorInstance>,
}

impl fmt::Debug for GroupingInput {
    /// The device columns and parameters; the position index and the
    /// planning memos are derived state and left out.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupingInput")
            .field("ids", &self.ids)
            .field("ues", &self.ues)
            .field("classes", &self.classes)
            .field("pagings", &self.pagings)
            .field("report_intervals", &self.report_intervals)
            .field("coverages", &self.coverages)
            .field("schedules", &self.schedules)
            .field("params", &self.params)
            .field("max_cycle", &self.max_cycle)
            .finish_non_exhaustive()
    }
}

impl GroupingInput {
    /// Builds the input from a generated population — a straight clone of
    /// the population's columns, with schedules resolved from the
    /// `pagings`/`ues` pair.
    ///
    /// An empty population builds an empty input, which every mechanism
    /// plans with no transmission.
    ///
    /// # Errors
    ///
    /// * [`GroupingError::TiTooShort`] when `TI` is shorter than the
    ///   shortest standard DRX cycle (DA-SC's feasibility guarantee),
    /// * [`GroupingError::TiTooLong`] when `TI` is longer than
    ///   [`GroupingParams::LONGEST_TI`],
    /// * [`GroupingError::InstantOutOfRange`] when `start` or
    ///   `transmission_time` is past [`GroupingParams::LATEST_INSTANT`],
    /// * [`GroupingError::Schedule`] when a paging schedule cannot be
    ///   resolved.
    pub fn from_population(
        pop: &Population,
        params: GroupingParams,
    ) -> Result<GroupingInput, GroupingError> {
        Self::validate(&params)?;
        let schedules = pop.schedules()?;
        let max_cycle = pop.max_cycle();
        let ids: Vec<DeviceId> = (0..pop.len()).map(|i| pop.id(i)).collect();
        let positions = PositionIndex::new(&ids);
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
            po_timeline: OnceLock::new(),
            count_cover: OnceLock::new(),
            anchor_instance: OnceLock::new(),
        })
    }

    fn validate(params: &GroupingParams) -> Result<(), GroupingError> {
        let shortest = SimDuration::from_frames(CycleLadder::FRAMES[0]);
        if params.ti.duration() < shortest {
            return Err(GroupingError::TiTooShort {
                ti_ms: params.ti.duration().as_ms(),
                shortest_cycle_ms: shortest.as_ms(),
            });
        }
        let longest = GroupingParams::LONGEST_TI;
        if params.ti.duration() > longest {
            return Err(GroupingError::TiTooLong {
                ti_ms: params.ti.duration().as_ms(),
                longest_ms: longest.as_ms(),
            });
        }
        let latest = GroupingParams::LATEST_INSTANT;
        for (field, at) in [
            ("start", Some(params.start)),
            ("transmission_time", params.transmission_time),
        ] {
            if let Some(requested) = at.filter(|&at| at > latest) {
                return Err(GroupingError::InstantOutOfRange {
                    field,
                    requested,
                    latest,
                });
            }
        }
        Ok(())
    }

    /// The device-order position of the device with identity `id`, or
    /// `None` when `id` is not part of this group.
    ///
    /// The index is built once, with the input. When the id span
    /// `[min id, max id]` is at most four slots a device, a lookup is one
    /// read of a dense `u32` table over that span: no larger than sorted
    /// `(id, position)` pairs at 16 bytes a device, which wider spans keep
    /// and binary-search, so ids from outside the program never size a
    /// table. An id repeated in a hand-built population resolves to its
    /// first row (a plan over such a group fails validation with
    /// [`crate::PlanViolation::NotExactlyOnce`]).
    #[inline]
    pub fn position_of(&self, id: DeviceId) -> Option<usize> {
        self.positions.get(id)
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

    /// Coverage-enhancement classes, in device order, resolved from the
    /// population's class-level coverage table.
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

    /// `true` when the group is empty.
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

    /// The group's PO timeline over the search horizon, over schedule
    /// classes ([`PoTimeline::new`]): sparse devices (cycle greater than
    /// `TI`) contribute their class's occasions, dense devices none (they
    /// have a PO in every window). Built on first use; DR-SC's cover and
    /// the anchor instance read this one copy.
    pub fn po_timeline(&self) -> &PoTimeline {
        self.po_timeline.get_or_init(|| {
            PoTimeline::new(
                &self.schedules,
                self.params.ti.duration(),
                self.search_horizon(),
            )
        })
    }

    /// DR-SC's greedy count cover ([`WindowCover::solve`] over
    /// [`GroupingInput::po_timeline`]), solved on first use.
    ///
    /// # Errors
    ///
    /// [`GroupingError::NoUsablePo`] naming the first sparse device, in
    /// device order, with no paging occasion inside the search horizon.
    pub(crate) fn count_cover(&self) -> Result<&[CoverSlot], GroupingError> {
        self.count_cover
            .get_or_init(|| {
                let timeline = self.po_timeline();
                WindowCover::new(self.params.ti.duration())
                    .solve(self.search_horizon().start(), timeline)
                    .ok_or_else(|| GroupingError::NoUsablePo {
                        device: self.ids[timeline
                            .first_unreachable()
                            .expect("solver fails only on sparse device without POs")],
                        t: self.search_horizon().end(),
                    })
            })
            .as_deref()
            .map_err(Clone::clone)
    }

    /// The deduplicated anchor-window instance over the sparse devices'
    /// POs ([`AnchorInstance::new`]), built on first use.
    pub(crate) fn anchor_instance(&self) -> &AnchorInstance {
        self.anchor_instance
            .get_or_init(|| AnchorInstance::new(self.params.ti.duration(), self.po_timeline()))
    }
}

/// A group's identity → device-order index ([`GroupingInput::position_of`]).
#[derive(Clone)]
enum PositionIndex {
    /// `slots[id − min]` is the first row holding `id`, or [`Self::VACANT`]
    /// for an id in a gap of the span.
    Dense { min: u32, slots: Vec<u32> },
    /// `(id, position)` pairs sorted by id, then position.
    Sorted(Vec<(DeviceId, usize)>),
}

impl PositionIndex {
    /// The widest id span, in slots a device, that gets the dense table.
    /// At four 4-byte slots a device the table is no larger than the
    /// 16-byte sorted pairs. Generated fleets have ids equal to their rows
    /// (span n). Replayed service-churn logs span 6.6–6.8·n at the median
    /// and up to 12·n, and keep the pairs; a 16·n bound read no faster
    /// there, so memory sets the bound. Event-log ids are unbounded: a
    /// table for ids {0, u32::MAX} would take 16 GB.
    const MAX_SLOTS_PER_DEVICE: usize = 4;

    /// A dense slot that holds no device.
    const VACANT: u32 = u32::MAX;

    fn new(ids: &[DeviceId]) -> PositionIndex {
        let n = ids.len();
        let min = ids.iter().min().map_or(0, |id| id.0);
        let span = ids.iter().max().map_or(0, |id| (id.0 - min) as usize + 1);
        // The table stores rows as `u32`, below VACANT.
        if span <= Self::MAX_SLOTS_PER_DEVICE * n && n < Self::VACANT as usize {
            let mut slots = vec![Self::VACANT; span];
            // Backwards, so a repeated id keeps its first row.
            for (i, id) in ids.iter().enumerate().rev() {
                slots[(id.0 - min) as usize] = i as u32;
            }
            PositionIndex::Dense { min, slots }
        } else {
            let mut pairs: Vec<(DeviceId, usize)> =
                ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
            pairs.sort_unstable();
            PositionIndex::Sorted(pairs)
        }
    }

    #[inline]
    fn get(&self, id: DeviceId) -> Option<usize> {
        match self {
            PositionIndex::Dense { min, slots } => {
                let slot = *slots.get(id.0.checked_sub(*min)? as usize)?;
                (slot != Self::VACANT).then_some(slot as usize)
            }
            PositionIndex::Sorted(pairs) => {
                let first = pairs.partition_point(|&(k, _)| k < id);
                pairs.get(first).filter(|&&(k, _)| k == id).map(|&(_, i)| i)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbiot_time::{DrxCycle, EdrxCycle, PagingCycle, TimeWindow};
    use nbiot_traffic::TrafficMix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop(n: usize) -> Population {
        TrafficMix::ericsson_city()
            .generate(n, &mut StdRng::seed_from_u64(5))
            .unwrap()
    }

    fn input(n: usize) -> GroupingInput {
        GroupingInput::from_population(&pop(n), GroupingParams::default()).unwrap()
    }

    #[test]
    fn empty_population_builds_an_empty_input() {
        let inp = input(0);
        assert!(inp.is_empty());
        assert_eq!(inp.max_cycle(), SimDuration::ZERO);
        assert_eq!(inp.transmission_time().unwrap(), inp.params().start);
        assert_eq!(inp.position_of(DeviceId(0)), None);
        assert!(inp.count_cover().unwrap().is_empty());
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
    fn ti_longer_than_the_longest_is_rejected() {
        let pop = pop(3);
        let with_ti = |ti| GroupingParams {
            ti: InactivityTimer::new(ti),
            ..GroupingParams::default()
        };
        let longest = GroupingParams::LONGEST_TI;
        assert!(GroupingInput::from_population(&pop, with_ti(longest)).is_ok());
        let err = GroupingInput::from_population(&pop, with_ti(longest + SimDuration::from_ms(1)))
            .unwrap_err();
        assert_eq!(
            err,
            GroupingError::TiTooLong {
                ti_ms: longest.as_ms() + 1,
                longest_ms: longest.as_ms(),
            }
        );
        assert!(err.to_string().contains("grouping ti"), "{err}");
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
        let pop = pop(10);
        let minimum = GroupingInput::from_population(&pop, GroupingParams::default())
            .unwrap()
            .default_transmission_time();
        let late = GroupingParams {
            transmission_time: Some(minimum + SimDuration::from_secs(60)),
            ..GroupingParams::default()
        };
        let inp2 = GroupingInput::from_population(&pop, late).unwrap();
        assert_eq!(
            inp2.transmission_time().unwrap(),
            minimum + SimDuration::from_secs(60)
        );
        let early = GroupingParams {
            transmission_time: Some(SimInstant::from_ms(1)),
            ..GroupingParams::default()
        };
        let inp3 = GroupingInput::from_population(&pop, early).unwrap();
        assert!(matches!(
            inp3.transmission_time(),
            Err(GroupingError::TransmissionTooEarly { .. })
        ));
    }

    #[test]
    fn instants_past_the_latest_are_rejected() {
        let pop = pop(30);
        let latest = GroupingParams::LATEST_INSTANT;
        let past = latest + SimDuration::from_ms(1);
        for (field, params) in [
            (
                "start",
                GroupingParams {
                    start: past,
                    ..GroupingParams::default()
                },
            ),
            (
                "transmission_time",
                GroupingParams {
                    transmission_time: Some(past),
                    ..GroupingParams::default()
                },
            ),
        ] {
            let err = GroupingInput::from_population(&pop, params).unwrap_err();
            assert_eq!(
                err,
                GroupingError::InstantOutOfRange {
                    field,
                    requested: past,
                    latest
                }
            );
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn schedules_align_with_devices() {
        let inp = input(40);
        assert_eq!(inp.len(), inp.schedules().len());
        assert_eq!(inp.len(), 40);
        assert!(!inp.is_empty());
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
        // A population rebuilt from its rows has the default class
        // table: the same input, all CE0.
        let rows = Population::new(
            pop.mix_name().into(),
            pop.class_names().to_vec(),
            pop.profiles(),
        );
        let from_rows = GroupingInput::from_population(&rows, GroupingParams::default()).unwrap();
        assert_eq!(from_rows.profiles(), inp.profiles());
        assert_eq!(from_rows.schedules(), inp.schedules());
        assert!(from_rows
            .coverages()
            .iter()
            .all(|&c| c == CoverageClass::Normal));
    }

    /// The input of a city fleet whose row `i` carries id `ids[i]`.
    fn input_with_ids(ids: &[u32]) -> GroupingInput {
        let base = pop(ids.len());
        let devices = base
            .profiles()
            .into_iter()
            .zip(ids)
            .map(|(d, &id)| DeviceProfile {
                id: DeviceId(id),
                ..d
            })
            .collect();
        let pop = Population::new(base.mix_name().into(), base.class_names().to_vec(), devices);
        GroupingInput::from_population(&pop, GroupingParams::default()).unwrap()
    }

    #[test]
    fn position_index_resolves_every_device_on_both_paths() {
        let (n, max) = (40u32, u32::MAX);
        let identity: Vec<u32> = (0..n).collect();
        let reversed: Vec<u32> = (1000..1000 + n).rev().collect();
        let even: Vec<u32> = (0..n).map(|i| 2 * i).collect();
        let sparse: Vec<u32> = (1..=n).map(|i| 5 * i).collect();
        // (ids, takes the dense table, ids that must not resolve: below
        // the min, in a gap, above the max, and u32::MAX where absent).
        let fleets = [
            (identity, true, vec![n, n + 1, max]),
            (reversed, true, vec![0, 999, 1000 + n, max]),
            // Span 2n: the table, with a gap at every odd id.
            (even, true, vec![1, 2 * n - 3, 2 * n - 1, max]),
            // Span 5n − 4: past four slots a device.
            (sparse, false, vec![0, 4, 6, 199, 201, max]),
            (vec![0, max], false, vec![1, 1 << 31, max - 1]),
            (Vec::new(), true, vec![0, 1, max]),
        ];
        for (ids, dense, absent) in fleets {
            let inp = input_with_ids(&ids);
            let label = format!("{:?}", &ids[..ids.len().min(3)]);
            assert_eq!(
                matches!(inp.positions, PositionIndex::Dense { .. }),
                dense,
                "{label}"
            );
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(inp.position_of(DeviceId(id)), Some(i), "{label}");
            }
            for id in absent {
                assert!(!ids.contains(&id), "{label}: {id}");
                assert_eq!(inp.position_of(DeviceId(id)), None, "{label}: {id}");
            }
        }
    }

    #[test]
    fn a_repeated_id_resolves_to_its_first_row() {
        use crate::{DaSc, GroupingMechanism, PlanViolation};
        for ids in [[3, 7, 3], [0, u32::MAX, 0]] {
            let inp = input_with_ids(&ids);
            assert_eq!(inp.position_of(DeviceId(ids[0])), Some(0), "{ids:?}");
            let plan = DaSc::default()
                .plan(&inp, &mut StdRng::seed_from_u64(0))
                .unwrap();
            assert!(matches!(
                plan.validate(&inp),
                Err(PlanViolation::NotExactlyOnce { times: 2, .. })
            ));
        }
    }

    #[test]
    fn po_timeline_classes_partition_the_fleet_by_schedule() {
        let mut twins = 0;
        for name in TrafficMix::REGISTRY {
            let mix = TrafficMix::by_name(name).unwrap();
            for n in [1usize, 40, 300] {
                let pop = mix.generate(n, &mut StdRng::seed_from_u64(9)).unwrap();
                let inp = GroupingInput::from_population(&pop, GroupingParams::default()).unwrap();
                let (schedules, ti) = (inp.schedules(), inp.params().ti.duration());
                let label = format!("{name} n={n}");
                let horizon = inp.search_horizon();
                twins += check_timeline(&label, schedules, ti, horizon, inp.po_timeline());
                assert_eq!(inp.po_timeline().first_unreachable(), None, "{label}");
                if n > 40 {
                    continue;
                }
                // Horizons [s, s + k·P + r) that start off the frame grid,
                // over none to three whole periods of P = maxDRX and a
                // remainder r of 0, less than TI and more than TI.
                let period = inp.max_cycle();
                let s = SimInstant::from_ms(1_234_567);
                for k in 0..4 {
                    for r in [SimDuration::ZERO, ti / 2, ti * 3] {
                        let horizon = TimeWindow::starting_at(s, period * k + r);
                        let label = format!("{label} k={k} r={r}");
                        let timeline = PoTimeline::new(schedules, ti, horizon);
                        twins += check_timeline(&label, schedules, ti, horizon, &timeline);
                    }
                }
                // A repair-style leftover: the search horizon over the
                // schedules whose cycle is shorter than maxDRX.
                let subset: Vec<PagingSchedule> = schedules
                    .iter()
                    .filter(|s| s.period() < period)
                    .copied()
                    .collect();
                let timeline = PoTimeline::new(&subset, ti, horizon);
                twins +=
                    check_timeline(&format!("{label} subset"), &subset, ti, horizon, &timeline);
            }
        }
        // The horizons that repeat reach the twin path.
        assert!(twins > 0);
    }

    /// Checks `timeline`, built by [`PoTimeline::new`] over `schedules` and
    /// `horizon`: its classes partition the devices by schedule, each
    /// class's events are its members' POs, and the anchor instance and
    /// every cover engine equal those of the per-device timeline, which
    /// enumerates and sweeps the whole horizon. Returns how many anchors of
    /// that instance have a twin.
    fn check_timeline(
        label: &str,
        schedules: &[PagingSchedule],
        ti: SimDuration,
        horizon: TimeWindow,
        timeline: &PoTimeline,
    ) -> usize {
        let n = schedules.len();
        let dense: Vec<usize> = (0..n).filter(|&d| schedules[d].period() <= ti).collect();
        assert_eq!(timeline.dense_devices(), dense, "{label}");
        let sparse = timeline.sparse_classes();
        let weight: u32 = (0..sparse).map(|c| timeline.multiplicity(c)).sum();
        assert_eq!(weight as usize, n - dense.len(), "{label}");
        // Ascending member lists that partition the fleet; sparse classes
        // are numbered by their lowest member.
        let mut seen = vec![false; n];
        for c in 0..timeline.classes() {
            let members = timeline.members(c);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "{label}");
            for &d in members {
                let d = d as usize;
                assert!(!seen[d], "{label}: device {d} in two classes");
                seen[d] = true;
                assert_eq!(timeline.class_of(d), c, "{label}");
                assert_eq!(schedules[d], schedules[members[0] as usize], "{label}");
                assert_eq!(c < sparse, dense.binary_search(&d).is_err(), "{label}");
            }
        }
        assert!(seen.iter().all(|&s| s), "{label}");
        assert!((1..sparse).all(|c| timeline.members(c - 1)[0] < timeline.members(c)[0]));
        let firsts: Vec<_> = (0..timeline.classes())
            .map(|c| schedules[timeline.members(c)[0] as usize])
            .collect();
        let distinct: std::collections::HashSet<_> = firsts.iter().collect();
        assert_eq!(
            distinct.len(),
            firsts.len(),
            "{label}: a schedule in two classes"
        );
        // Each class's events are every member's own POs.
        let pos: Vec<Vec<SimInstant>> = schedules.iter().map(|s| s.pos_in(horizon)).collect();
        let mut events = vec![Vec::new(); sparse];
        for &(t, c) in timeline.events() {
            events[c].push(t);
        }
        for (c, class_events) in events.iter().enumerate() {
            for &d in timeline.members(c) {
                assert_eq!(*class_events, pos[d as usize], "{label}");
            }
        }
        let is_dense: Vec<bool> = (0..n).map(|d| dense.binary_search(&d).is_ok()).collect();
        let device_events: usize = (0..n).filter(|&d| !is_dense[d]).map(|d| pos[d].len()).sum();
        assert_eq!(timeline.device_events(), device_events, "{label}");
        let unreachable = (0..n).find(|&d| !is_dense[d] && pos[d].is_empty());
        assert_eq!(timeline.first_unreachable(), unreachable, "{label}");
        // The oracle: the per-device timeline, which has no period.
        let full = PoTimeline::from_events(&pos, &is_dense);
        let instance = AnchorInstance::new(ti, &full);
        assert_eq!(AnchorInstance::new(ti, timeline), instance, "{label}");
        let solver = WindowCover::new(ti);
        let slots = solver.solve(horizon.start(), &full);
        for t in [timeline, &full] {
            assert_eq!(solver.solve(horizon.start(), t), slots, "{label}");
            assert_eq!(solver.solve_sweep(horizon.start(), t), slots, "{label}");
            assert_eq!(
                solver.solve_incremental(horizon.start(), t),
                slots,
                "{label}"
            );
        }
        // What the one-period build relies on, checked on the oracle's full
        // sweep: with P the largest sparse cycle, an anchor at or after
        // start + P whose window fits opens its twin's window, one period
        // earlier, and every cover slot anchors before start + P.
        let Some(period) = (0..sparse)
            .map(|c| schedules[timeline.members(c)[0] as usize].period())
            .max()
        else {
            return 0;
        };
        let boundary = horizon.start() + period;
        let mut twins = 0;
        for (a, &t) in instance.anchors().iter().enumerate() {
            if t >= boundary && t + ti <= horizon.end() {
                let twin = instance.anchor_index(t - period).expect("twin anchor");
                assert_eq!(instance.window_of(a), instance.window_of(twin), "{label}");
                twins += 1;
            }
        }
        assert!(
            slots.iter().flatten().all(|s| s.window_start < boundary),
            "{label}"
        );
        twins
    }
}
