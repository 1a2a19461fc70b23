//! Fault injection for stored metadata regions.
//!
//! Ignite's metadata lives in plain main memory between invocations (§4.3),
//! with no hardware protection: by the time it is replayed it may have been
//! partially overwritten, lost, or gone stale because the function's code
//! changed underneath it. The paper's correctness argument (§4.2) is that
//! all of these degrade into ordinary front-end misses — never incorrect
//! execution, never pathological slowdown. This module makes that claim
//! testable: a [`FaultPlan`] mutates the serialized region image
//! deterministically between the write of one invocation and the read of
//! the next, so experiments (`sweep faults`) can measure the degradation
//! curve instead of assuming it.
//!
//! Three fault classes are modelled, each with an independent rate:
//!
//! * **bit flips** — each payload/header bit flips independently;
//! * **staleness** — a fraction of recorded branches are re-targeted to a
//!   nearby wrong address, simulating code drift between invocations; the
//!   region is re-encoded with a *valid* checksum, so these faults flow all
//!   the way to the BTB and must be corrected by the resteer path;
//! * **whole-region loss** — the region vanishes (container migration,
//!   page reclaimed), leaving the invocation to run cold.
//!
//! Rates are stored in parts-per-million as integers so [`FaultPlan`] stays
//! `Copy + Eq + Hash` and can live inside `IgniteConfig`.

use ignite_uarch::rng::SplitMix64;

use crate::codec::{CodecError, Encoder, Metadata};

/// One million — the denominator for all fault rates.
pub const PPM_SCALE: u32 = 1_000_000;

/// A deterministic, seedable plan for corrupting stored metadata.
///
/// All rates are expressed in parts per million (`1_000_000` = always).
/// The default plan injects nothing. Mutations are a pure function of
/// `(seed, container, invocation)`, so parallel and serial harness runs see
/// identical faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed decorrelating this plan from others with equal rates.
    pub seed: u64,
    /// Per-bit flip probability over the serialized image.
    pub bit_flip_ppm: u32,
    /// Per-entry probability of re-targeting a recorded branch.
    pub stale_ppm: u32,
    /// Per-invocation probability of losing the whole region.
    pub loss_ppm: u32,
}

impl FaultPlan {
    /// The inert plan: no faults ever fire.
    pub const fn none() -> Self {
        FaultPlan { seed: 0, bit_flip_ppm: 0, stale_ppm: 0, loss_ppm: 0 }
    }

    /// Converts a `[0, 1]` rate to parts per million, saturating.
    pub fn ppm(rate: f64) -> u32 {
        (rate.clamp(0.0, 1.0) * f64::from(PPM_SCALE)).round() as u32
    }

    /// A plan that only flips bits, at `rate` per bit.
    pub fn bit_flips(rate: f64, seed: u64) -> Self {
        FaultPlan { seed, bit_flip_ppm: Self::ppm(rate), ..Self::none() }
    }

    /// A plan that only injects stale (re-targeted) entries, at `rate` per
    /// entry.
    pub fn stale(rate: f64, seed: u64) -> Self {
        FaultPlan { seed, stale_ppm: Self::ppm(rate), ..Self::none() }
    }

    /// Whether any fault class has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.bit_flip_ppm > 0 || self.stale_ppm > 0 || self.loss_ppm > 0
    }

    /// Applies the plan to a stored region as it is read for `invocation`
    /// of `container`.
    ///
    /// * `Ok(Some(md))` — the region is readable (possibly silently
    ///   corrupted; checksum validation happens at replay time).
    /// * `Ok(None)` — whole-region loss: the invocation runs as if nothing
    ///   was ever recorded.
    /// * `Err(e)` — corruption destroyed the region's structure; the caller
    ///   should account the region's records as dropped.
    pub fn apply(
        &self,
        md: &Metadata,
        container: u64,
        invocation: u64,
    ) -> Result<Option<Metadata>, CodecError> {
        if !self.is_active() {
            return Ok(Some(md.clone()));
        }
        let mut rng = SplitMix64::new(
            self.seed
                ^ container.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ invocation.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        if chance_ppm(&mut rng, self.loss_ppm) {
            return Ok(None);
        }
        // Staleness first: it models the *recorded program* drifting, not
        // memory corruption, so it re-encodes cleanly (valid checksum) and
        // the wrong targets reach the BTB to be fixed by resteers.
        let md = if self.stale_ppm > 0 { self.retarget(md, &mut rng) } else { md.clone() };

        if self.bit_flip_ppm == 0 {
            return Ok(Some(md));
        }
        let mut image = md.to_bytes();
        flip_bits(&mut image, self.bit_flip_ppm, &mut rng);
        Metadata::from_bytes(&image).map(Some)
    }

    /// Re-targets a `stale_ppm` fraction of entries to nearby wrong
    /// addresses and re-encodes with the metadata's own widths.
    fn retarget(&self, md: &Metadata, rng: &mut SplitMix64) -> Metadata {
        let mut enc = Encoder::new(md.codec_config());
        for mut entry in md.decode() {
            if chance_ppm(rng, self.stale_ppm) {
                // Code drift: the branch now lands a few cache lines away.
                let delta = rng.range_inclusive(64, 4096) as i64;
                let sign = if rng.chance(0.5) { 1 } else { -1 };
                entry.target = entry.target.offset(sign * delta);
            }
            enc.push(&entry);
        }
        enc.finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

fn chance_ppm(rng: &mut SplitMix64, ppm: u32) -> bool {
    ppm >= PPM_SCALE || (ppm > 0 && rng.next_below(u64::from(PPM_SCALE)) < u64::from(ppm))
}

/// Flips each bit of `bytes` independently with probability `ppm / 1e6`,
/// using geometric gap sampling so low rates cost O(flips) not O(bits).
fn flip_bits(bytes: &mut [u8], ppm: u32, rng: &mut SplitMix64) {
    if ppm == 0 || bytes.is_empty() {
        return;
    }
    if ppm >= PPM_SCALE {
        for b in bytes.iter_mut() {
            *b = !*b;
        }
        return;
    }
    let total_bits = bytes.len() * 8;
    let p = f64::from(ppm) / f64::from(PPM_SCALE);
    let ln_keep = (1.0 - p).ln();
    let mut pos = 0usize;
    loop {
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        let gap = (u.ln() / ln_keep) as usize;
        pos = match pos.checked_add(gap) {
            Some(p) if p < total_bits => p,
            _ => break,
        };
        bytes[pos / 8] ^= 1 << (pos % 8);
        pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecConfig;
    use ignite_uarch::addr::Addr;
    use ignite_uarch::btb::{BranchKind, BtbEntry};

    fn sample(n: u64) -> Metadata {
        let mut enc = Encoder::new(CodecConfig::default());
        for i in 0..n {
            enc.push(&BtbEntry::new(
                Addr::new(0x1000 + i * 32),
                Addr::new(0x1000 + i * 32 + 8),
                BranchKind::Conditional,
            ));
        }
        enc.finish()
    }

    #[test]
    fn inert_plan_is_identity() {
        let md = sample(10);
        let out = FaultPlan::none().apply(&md, 1, 0).unwrap().unwrap();
        assert_eq!(out, md);
        assert!(out.validate().is_ok());
    }

    #[test]
    fn faults_are_deterministic() {
        let md = sample(40);
        let plan = FaultPlan { seed: 7, bit_flip_ppm: 5_000, ..FaultPlan::none() };
        let a = plan.apply(&md, 3, 2);
        let b = plan.apply(&md, 3, 2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Different invocations draw different faults.
        let c = plan.apply(&md, 3, 5);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn certain_loss_drops_region() {
        let md = sample(10);
        let plan = FaultPlan { loss_ppm: PPM_SCALE, ..FaultPlan::none() };
        assert!(plan.apply(&md, 1, 0).unwrap().is_none());
    }

    #[test]
    fn full_bit_flip_rate_never_parses_silently() {
        let md = sample(10);
        let plan = FaultPlan::bit_flips(1.0, 0);
        // Complementing every bit destroys the magic, so the region is
        // structurally unreadable.
        assert!(plan.apply(&md, 1, 0).is_err());
    }

    #[test]
    fn bit_flips_break_checksum_validation() {
        let md = sample(60);
        let plan = FaultPlan::bit_flips(0.01, 1);
        // Some (container, invocation) points will parse structurally but
        // fail the checksum; others fail structurally. None may validate
        // cleanly *and* differ from the original.
        let mut corrupted_seen = false;
        for inv in 0..20 {
            match plan.apply(&md, 1, inv) {
                Ok(Some(out)) => {
                    if out != md {
                        assert!(out.validate().is_err(), "silent corruption at inv {inv}");
                        corrupted_seen = true;
                    }
                }
                Ok(None) => unreachable!("no loss configured"),
                Err(_) => corrupted_seen = true,
            }
        }
        assert!(corrupted_seen, "1% bit-flip rate fired nowhere in 20 invocations");
    }

    #[test]
    fn stale_faults_reencode_validly() {
        let md = sample(50);
        let plan = FaultPlan::stale(0.5, 3);
        let out = plan.apply(&md, 1, 0).unwrap().unwrap();
        assert!(out.validate().is_ok(), "stale regions must pass validation");
        assert_eq!(out.entries(), md.entries());
        let orig: Vec<_> = md.decode().collect();
        let mutated: Vec<_> = out.decode().collect();
        let moved = orig.iter().zip(&mutated).filter(|(a, b)| a.target != b.target).count();
        assert!(moved > 0, "50% staleness must move some targets");
        assert!(
            orig.iter().zip(&mutated).all(|(a, b)| a.branch_pc == b.branch_pc),
            "staleness must not move branch PCs"
        );
    }

    #[test]
    fn ppm_conversion_saturates() {
        assert_eq!(FaultPlan::ppm(0.0), 0);
        assert_eq!(FaultPlan::ppm(1.0), PPM_SCALE);
        assert_eq!(FaultPlan::ppm(2.0), PPM_SCALE);
        assert_eq!(FaultPlan::ppm(-1.0), 0);
        assert_eq!(FaultPlan::ppm(0.001), 1_000);
    }
}
