//! Architecture-level fault specification: the fault-model taxonomy.
//!
//! The original model was a single transient XOR strike on the *result* of
//! one dynamic instruction in one lane before write-back — the architectural
//! manifestation of the gate-level single-event errors studied in Fig. 10.
//! This module generalizes that into three classes:
//!
//! * [`FaultClass::Transient`] — the legacy one-shot datapath strike, now
//!   with arbitrary (multi-bit / burst) XOR patterns;
//! * [`FaultClass::Control`] — a one-shot strike on *parallelism-management*
//!   state (predicate registers, active/divergence masks, barrier wait
//!   state, scheduler slot PC) delivered at a chosen dynamic instruction
//!   index rather than an eligible-datapath index;
//! * [`FaultClass::StuckAt`] — a permanent (or intermittent) stuck-at-0/1
//!   defect at a netlist site that re-asserts on every eligible access from
//!   its activation point onward.
//!
//! Which half of a duplicated pair absorbs a datapath hit decides whether
//! the data or the check bits of the swapped codeword are affected; control
//! faults bypass the duplicated datapath entirely, which is exactly why
//! they probe the coverage boundary of instruction-duplication codes.

/// Warp width: lanes are indexed `0..32`.
pub const WARP_WIDTH: u32 = 32;
/// Architectural result width in bits: single-bit strikes pick `0..32`.
pub const RESULT_WIDTH: u32 = 32;

/// Which instruction of a duplicated pair the fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The data-producing instruction (an `ecc_only` shadow is never hit by
    /// this target).
    Original,
    /// The check-producing shadow instruction (requires Swap-ECC-style
    /// duplication to be meaningful).
    Shadow,
}

/// Which piece of control state a [`FaultClass::Control`] strike corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlTarget {
    /// XOR the per-lane predicate byte of `lane` with the low 8 bits of the
    /// strike mask: subsequent guarded instructions mispredicate.
    Predicate,
    /// XOR the issuing fragment's active mask with the low 32 bits of the
    /// strike mask; a zeroed fragment silently retires its threads.
    ActiveMask,
    /// Flip the issuing warp's barrier wait flag — the architectural face of
    /// a corrupted barrier arrival counter: the warp either arrives at a
    /// barrier nobody called or sails past one it should have joined.
    Barrier,
    /// XOR the scheduler slot's resume PC with the low bits of the strike
    /// mask: the warp's next fetch comes from the wrong place (a wild PC
    /// past the kernel end retires the warp).
    SchedulerSlot,
}

/// Parameters of a [`FaultClass::StuckAt`] defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckAtSpec {
    /// Stuck level: `true` forces the masked bits to 1, `false` to 0.
    pub value: bool,
    /// Netlist site identifier (from `swapcodes-gates` site enumeration) —
    /// carried for reporting/area-weighting only, not interpreted here.
    pub site: u32,
    /// `0` = permanent (asserts on every eligible access from activation
    /// on). `p > 0` = intermittent: active during alternating windows of
    /// `p` eligible accesses (on for `p`, off for `p`, ...).
    pub period: u32,
}

/// The fault class: what kind of physical defect the strike models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// One-shot particle strike on a datapath result before write-back.
    Transient,
    /// One-shot strike on control / parallelism-management state, delivered
    /// at dynamic instruction `eligible_index` (reinterpreted as a *global
    /// dynamic* index, not an eligible-datapath index).
    Control(ControlTarget),
    /// Permanent or intermittent stuck-at defect re-asserting on every
    /// eligible access with counter `>= eligible_index`.
    StuckAt(StuckAtSpec),
}

/// Structured construction/validation error for a [`FaultSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpecError {
    /// `lane >= WARP_WIDTH`: the strike would never match any lane and the
    /// trial would silently become a no-op.
    LaneOutOfRange {
        /// The rejected lane.
        lane: u32,
    },
    /// `bit >= RESULT_WIDTH` in a single-bit/burst constructor: the shifted
    /// mask would overflow or miss the architectural result.
    BitOutOfRange {
        /// The rejected bit index.
        bit: u32,
    },
    /// A zero strike mask on a class that applies one: the fault could
    /// never change any state.
    NullMask,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LaneOutOfRange { lane } => {
                write!(f, "lane {lane} out of range (warp width {WARP_WIDTH})")
            }
            Self::BitOutOfRange { bit } => {
                write!(f, "bit {bit} out of range (result width {RESULT_WIDTH})")
            }
            Self::NullMask => write!(f, "strike mask is zero: fault would be a no-op"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A single fault to inject during functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// For datapath classes (`Transient`, `StuckAt`): strike / activate at
    /// the `n`-th *duplication-eligible* dynamic warp-instruction (counted
    /// across the whole execution, zero-based) whose role matches `target`.
    /// For `Control`: deliver at the warp issuing *global dynamic*
    /// instruction `n` (all instructions count, both roles).
    pub eligible_index: u64,
    /// Lane whose result (or predicate byte) is corrupted. Ignored by
    /// `ActiveMask` / `Barrier` / `SchedulerSlot` control strikes, which
    /// hit warp-wide state.
    pub lane: u32,
    /// Strike mask. `Transient`: XOR pattern applied to the 32-bit (or
    /// 64-bit, for pair results) output. `StuckAt`: the bit positions
    /// forced to the stuck level. `Control`: the XOR pattern for the
    /// targeted control word (predicate byte, active mask, or PC).
    pub xor_mask: u64,
    /// Which half of the duplicated pair absorbs a datapath hit. Ignored by
    /// control strikes.
    pub target: FaultTarget,
    /// The fault class.
    pub class: FaultClass,
}

impl FaultSpec {
    /// A single-bit transient flip of `bit` in the result of eligible
    /// instruction `eligible_index`, lane `lane`, hitting the original
    /// instruction.
    #[must_use]
    pub fn single_bit(eligible_index: u64, lane: u32, bit: u32) -> Self {
        Self {
            eligible_index,
            lane,
            xor_mask: 1u64 << bit,
            target: FaultTarget::Original,
            class: FaultClass::Transient,
        }
    }

    /// The same flip, striking the shadow instruction instead.
    #[must_use]
    pub fn single_bit_shadow(eligible_index: u64, lane: u32, bit: u32) -> Self {
        Self {
            target: FaultTarget::Shadow,
            ..Self::single_bit(eligible_index, lane, bit)
        }
    }

    /// Validated [`Self::single_bit`]: rejects out-of-range lanes and bits
    /// instead of silently masking to a no-op strike.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError::LaneOutOfRange`] when `lane >= 32`,
    /// [`FaultSpecError::BitOutOfRange`] when `bit >= 32`.
    pub fn try_single_bit(
        eligible_index: u64,
        lane: u32,
        bit: u32,
    ) -> Result<Self, FaultSpecError> {
        if lane >= WARP_WIDTH {
            return Err(FaultSpecError::LaneOutOfRange { lane });
        }
        if bit >= RESULT_WIDTH {
            return Err(FaultSpecError::BitOutOfRange { bit });
        }
        Ok(Self::single_bit(eligible_index, lane, bit))
    }

    /// Validated shadow-side [`Self::single_bit_shadow`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::try_single_bit`].
    pub fn try_single_bit_shadow(
        eligible_index: u64,
        lane: u32,
        bit: u32,
    ) -> Result<Self, FaultSpecError> {
        Ok(Self {
            target: FaultTarget::Shadow,
            ..Self::try_single_bit(eligible_index, lane, bit)?
        })
    }

    /// A transient burst: `width` adjacent bits starting at `bit` flip at
    /// once — the spatially-patterned multi-bit upsets field studies report.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError::LaneOutOfRange`] when `lane >= 32`,
    /// [`FaultSpecError::BitOutOfRange`] when the burst would spill past the
    /// result width, [`FaultSpecError::NullMask`] when `width == 0`.
    pub fn try_burst(
        eligible_index: u64,
        lane: u32,
        bit: u32,
        width: u32,
    ) -> Result<Self, FaultSpecError> {
        if lane >= WARP_WIDTH {
            return Err(FaultSpecError::LaneOutOfRange { lane });
        }
        if width == 0 {
            return Err(FaultSpecError::NullMask);
        }
        let top = bit
            .checked_add(width - 1)
            .ok_or(FaultSpecError::BitOutOfRange { bit })?;
        if top >= RESULT_WIDTH {
            return Err(FaultSpecError::BitOutOfRange { bit: top });
        }
        let mask = if width >= 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << bit
        };
        Ok(Self {
            eligible_index,
            lane,
            xor_mask: mask,
            target: FaultTarget::Original,
            class: FaultClass::Transient,
        })
    }

    /// A control-state strike on `target_state`, delivered at global
    /// dynamic instruction `dyn_index`.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError::LaneOutOfRange`] when `lane >= 32`,
    /// [`FaultSpecError::NullMask`] when the mask is zero and the targeted
    /// state is mask-driven (everything except `Barrier`, which is a flag
    /// flip and needs no mask).
    pub fn try_control(
        dyn_index: u64,
        lane: u32,
        target_state: ControlTarget,
        xor_mask: u64,
    ) -> Result<Self, FaultSpecError> {
        if lane >= WARP_WIDTH {
            return Err(FaultSpecError::LaneOutOfRange { lane });
        }
        if xor_mask == 0 && target_state != ControlTarget::Barrier {
            return Err(FaultSpecError::NullMask);
        }
        Ok(Self {
            eligible_index: dyn_index,
            lane,
            xor_mask,
            target: FaultTarget::Original,
            class: FaultClass::Control(target_state),
        })
    }

    /// A stuck-at defect forcing `bit` to `value` on every matching-side
    /// eligible access from eligible counter `activation_index` onward.
    /// `period == 0` is permanent; `period > 0` asserts in alternating
    /// on/off windows of `period` accesses.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError::LaneOutOfRange`] when `lane >= 32`,
    /// [`FaultSpecError::BitOutOfRange`] when `bit >= 32`.
    pub fn try_stuck_at(
        activation_index: u64,
        lane: u32,
        bit: u32,
        value: bool,
        site: u32,
        period: u32,
        target: FaultTarget,
    ) -> Result<Self, FaultSpecError> {
        if lane >= WARP_WIDTH {
            return Err(FaultSpecError::LaneOutOfRange { lane });
        }
        if bit >= RESULT_WIDTH {
            return Err(FaultSpecError::BitOutOfRange { bit });
        }
        Ok(Self {
            eligible_index: activation_index,
            lane,
            xor_mask: 1u64 << bit,
            target,
            class: FaultClass::StuckAt(StuckAtSpec {
                value,
                site,
                period,
            }),
        })
    }

    /// Validate an arbitrary (possibly hand-built) spec against the same
    /// rules the `try_*` constructors enforce.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        if self.lane >= WARP_WIDTH {
            return Err(FaultSpecError::LaneOutOfRange { lane: self.lane });
        }
        let needs_mask = !matches!(self.class, FaultClass::Control(ControlTarget::Barrier));
        if needs_mask && self.xor_mask == 0 {
            return Err(FaultSpecError::NullMask);
        }
        Ok(())
    }

    /// Does this fault fire on the eligible-datapath access numbered `seen`
    /// (zero-based, matching side)? Control faults never fire here — they
    /// are delivered on the dynamic-instruction path instead.
    #[must_use]
    pub fn fires_at(&self, seen: u64) -> bool {
        match self.class {
            FaultClass::Transient => seen == self.eligible_index,
            FaultClass::StuckAt(sa) => {
                if seen < self.eligible_index {
                    return false;
                }
                let elapsed = seen - self.eligible_index;
                sa.period == 0 || (elapsed / u64::from(sa.period)).is_multiple_of(2)
            }
            FaultClass::Control(_) => false,
        }
    }

    /// Is any eligible access with counter `>= seen` still able to fire?
    /// Transients are spent once the counter passes `eligible_index`;
    /// stuck-at defects are never spent; control faults never fire on this
    /// path at all.
    #[must_use]
    pub fn spent_at(&self, seen: u64) -> bool {
        match self.class {
            FaultClass::Transient => seen > self.eligible_index,
            FaultClass::StuckAt(_) => false,
            FaultClass::Control(_) => true,
        }
    }

    /// Corrupt a 32-bit result according to the class.
    #[must_use]
    pub fn apply32(&self, v: u32) -> u32 {
        match self.class {
            FaultClass::Transient => v ^ self.xor_mask as u32,
            FaultClass::StuckAt(sa) => {
                let m = self.xor_mask as u32;
                if sa.value {
                    v | m
                } else {
                    v & !m
                }
            }
            FaultClass::Control(_) => v,
        }
    }

    /// Corrupt a 64-bit (pair) result according to the class.
    #[must_use]
    pub fn apply64(&self, v: u64) -> u64 {
        match self.class {
            FaultClass::Transient => v ^ self.xor_mask,
            FaultClass::StuckAt(sa) => {
                if sa.value {
                    v | self.xor_mask
                } else {
                    v & !self.xor_mask
                }
            }
            FaultClass::Control(_) => v,
        }
    }

    /// Is this a control-state strike?
    #[must_use]
    pub fn is_control(&self) -> bool {
        matches!(self.class, FaultClass::Control(_))
    }

    /// The control target, when this is a control strike.
    #[must_use]
    pub fn control_target(&self) -> Option<ControlTarget> {
        match self.class {
            FaultClass::Control(t) => Some(t),
            _ => None,
        }
    }

    /// Does the defect survive a relaunch from the input snapshot? A
    /// transient or control strike already happened and does not recur; a
    /// stuck-at site is physically broken and re-asserts on re-execution.
    #[must_use]
    pub fn persists_across_relaunch(&self) -> bool {
        matches!(self.class, FaultClass::StuckAt(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let f = FaultSpec::single_bit(10, 3, 7);
        assert_eq!(f.xor_mask, 0x80);
        assert_eq!(f.target, FaultTarget::Original);
        assert_eq!(f.class, FaultClass::Transient);
        let s = FaultSpec::single_bit_shadow(10, 3, 7);
        assert_eq!(s.target, FaultTarget::Shadow);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        assert_eq!(
            FaultSpec::try_single_bit(0, 32, 0),
            Err(FaultSpecError::LaneOutOfRange { lane: 32 })
        );
        assert_eq!(
            FaultSpec::try_single_bit(0, 0, 32),
            Err(FaultSpecError::BitOutOfRange { bit: 32 })
        );
        assert_eq!(
            FaultSpec::try_single_bit_shadow(0, 99, 0),
            Err(FaultSpecError::LaneOutOfRange { lane: 99 })
        );
        assert!(FaultSpec::try_single_bit(0, 31, 31).is_ok());
    }

    #[test]
    fn burst_masks_are_contiguous_and_bounded() {
        let b = FaultSpec::try_burst(5, 1, 4, 3).expect("burst");
        assert_eq!(b.xor_mask, 0b111 << 4);
        assert_eq!(
            FaultSpec::try_burst(0, 0, 30, 4),
            Err(FaultSpecError::BitOutOfRange { bit: 33 })
        );
        assert_eq!(
            FaultSpec::try_burst(0, 0, 0, 0),
            Err(FaultSpecError::NullMask)
        );
    }

    #[test]
    fn control_constructor_and_predicates() {
        let c = FaultSpec::try_control(100, 2, ControlTarget::Predicate, 1).expect("control");
        assert!(c.is_control());
        assert_eq!(c.control_target(), Some(ControlTarget::Predicate));
        assert!(!c.fires_at(100), "control never fires on the eligible path");
        assert!(c.spent_at(0));
        assert!(!c.persists_across_relaunch());
        assert_eq!(
            FaultSpec::try_control(0, 0, ControlTarget::ActiveMask, 0),
            Err(FaultSpecError::NullMask)
        );
        // Barrier flips need no mask.
        assert!(FaultSpec::try_control(0, 0, ControlTarget::Barrier, 0).is_ok());
    }

    #[test]
    fn stuck_at_fires_from_activation_onward() {
        let f = FaultSpec::try_stuck_at(4, 0, 3, true, 17, 0, FaultTarget::Original).expect("sa");
        assert!(!f.fires_at(3));
        assert!(f.fires_at(4));
        assert!(f.fires_at(4000));
        assert!(!f.spent_at(u64::MAX));
        assert!(f.persists_across_relaunch());
        assert_eq!(f.apply32(0), 1 << 3);
        assert_eq!(f.apply32(u32::MAX), u32::MAX);
        let z = FaultSpec::try_stuck_at(0, 0, 3, false, 17, 0, FaultTarget::Shadow).expect("sa0");
        assert_eq!(z.apply32(u32::MAX), !(1u32 << 3));
        assert_eq!(z.apply32(0), 0);
    }

    #[test]
    fn intermittent_duty_windows_alternate() {
        let f = FaultSpec::try_stuck_at(10, 0, 0, true, 0, 2, FaultTarget::Original).expect("sa");
        // on for 2 (10,11), off for 2 (12,13), on again (14,15)...
        assert!(f.fires_at(10) && f.fires_at(11));
        assert!(!f.fires_at(12) && !f.fires_at(13));
        assert!(f.fires_at(14));
    }

    #[test]
    fn stuck_at_application_is_idempotent() {
        let f = FaultSpec::try_stuck_at(0, 0, 9, true, 1, 0, FaultTarget::Original).expect("sa");
        for v in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(f.apply32(f.apply32(v)), f.apply32(v));
            let w = u64::from(v) << 16;
            assert_eq!(f.apply64(f.apply64(w)), f.apply64(w));
        }
    }

    #[test]
    fn transient_apply_matches_legacy_xor() {
        let f = FaultSpec::single_bit(0, 0, 7);
        assert_eq!(f.apply32(0xFF), 0xFF ^ 0x80);
        assert_eq!(f.apply64(0xFF), 0xFF ^ 0x80);
        assert!(f.fires_at(0) && !f.fires_at(1) && f.spent_at(1));
    }
}
