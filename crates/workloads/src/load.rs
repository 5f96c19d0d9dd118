//! Input-load patterns over time.
//!
//! Datacenter applications go through phases (paper §3.3): online services
//! follow diurnal patterns, interactive services have intermittent
//! low-load windows (which Bolt's shutter profiling exploits), and batch
//! analytics hold a steady load until completion. A [`LoadPattern`] maps a
//! simulation time (seconds) to a load level in `[0, 1]` that scales the
//! workload's generated pressure.

/// Seconds in one simulated day (compressed so diurnal effects show up in
/// minutes-long experiments: 1 "day" = 600 s of simulated time).
pub const DAY_SECONDS: f64 = 600.0;

/// A deterministic load level as a function of time.
///
/// All variants produce levels in `[0, 1]`. Patterns are deterministic in
/// `t` so that repeated probing of the same instant is reproducible;
/// stochastic jitter is added by the workload's noise model, not here.
///
/// # Example
///
/// ```
/// use bolt_workloads::load::LoadPattern;
///
/// let diurnal = LoadPattern::Diurnal { low: 0.2, high: 0.9, phase: 0.0 };
/// let l = diurnal.level(0.0);
/// assert!((0.2..=0.9).contains(&l));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LoadPattern {
    /// Constant load at `level`.
    Constant {
        /// The fixed load level in `[0, 1]`.
        level: f64,
    },
    /// Sinusoidal day/night pattern between `low` and `high`, offset by
    /// `phase` (fraction of a day, `[0, 1)`).
    Diurnal {
        /// Night-time (minimum) load.
        low: f64,
        /// Day-time (maximum) load.
        high: f64,
        /// Phase offset as a fraction of the day.
        phase: f64,
    },
    /// Base load with periodic short bursts to `peak`.
    Bursty {
        /// Load between bursts.
        base: f64,
        /// Load during a burst.
        peak: f64,
        /// Seconds between burst starts.
        period: f64,
        /// Seconds a burst lasts (must be < `period`).
        burst_len: f64,
    },
    /// Alternating on/off (interactive services with idle windows —
    /// the pattern shutter profiling exploits).
    OnOff {
        /// Load while on.
        on_level: f64,
        /// Load while off (often near zero).
        off_level: f64,
        /// Seconds on per cycle.
        on_secs: f64,
        /// Seconds off per cycle.
        off_secs: f64,
    },
    /// A sequence of fixed-level phases, cycled. Each entry is
    /// `(duration_secs, level)`.
    Phased {
        /// The `(duration, level)` schedule; cycled when exhausted.
        schedule: Vec<(f64, f64)>,
    },
}

impl LoadPattern {
    /// A constant full-load pattern (batch analytics running flat out).
    pub fn steady() -> Self {
        LoadPattern::Constant { level: 1.0 }
    }

    /// The load level in `[0, 1]` at time `t` seconds.
    ///
    /// Negative times are treated as 0. Any misconfigured bounds are
    /// clamped so the result is always in `[0, 1]`.
    pub fn level(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        let raw = match self {
            LoadPattern::Constant { level } => *level,
            LoadPattern::Diurnal { low, high, phase } => {
                let x = (t / DAY_SECONDS + phase) * std::f64::consts::TAU;
                let s = 0.5 - 0.5 * x.cos(); // 0 at "midnight", 1 at "noon"
                low + (high - low) * s
            }
            LoadPattern::Bursty {
                base,
                peak,
                period,
                burst_len,
            } => {
                if *period <= 0.0 {
                    *base
                } else {
                    let pos = t % period;
                    if pos < *burst_len {
                        *peak
                    } else {
                        *base
                    }
                }
            }
            LoadPattern::OnOff {
                on_level,
                off_level,
                on_secs,
                off_secs,
            } => {
                let cycle = on_secs + off_secs;
                if cycle <= 0.0 || t % cycle < *on_secs {
                    *on_level
                } else {
                    *off_level
                }
            }
            LoadPattern::Phased { schedule } => {
                if schedule.is_empty() {
                    1.0
                } else {
                    let total: f64 = schedule.iter().map(|(d, _)| d.max(0.0)).sum();
                    if total <= 0.0 {
                        schedule[0].1
                    } else {
                        let mut pos = t % total;
                        let mut level = schedule[schedule.len() - 1].1;
                        for &(d, l) in schedule {
                            let d = d.max(0.0);
                            if pos < d {
                                level = l;
                                break;
                            }
                            pos -= d;
                        }
                        level
                    }
                }
            }
        };
        raw.clamp(0.0, 1.0)
    }

    /// The long-run mean level, estimated by sampling one full period.
    pub fn mean_level(&self) -> f64 {
        let horizon = match self {
            LoadPattern::Constant { .. } => 1.0,
            LoadPattern::Diurnal { .. } => DAY_SECONDS,
            LoadPattern::Bursty { period, .. } => period.max(1.0),
            LoadPattern::OnOff {
                on_secs, off_secs, ..
            } => (on_secs + off_secs).max(1.0),
            LoadPattern::Phased { schedule } => schedule
                .iter()
                .map(|(d, _)| d.max(0.0))
                .sum::<f64>()
                .max(1.0),
        };
        let samples = 200;
        (0..samples)
            .map(|i| self.level(horizon * i as f64 / samples as f64))
            .sum::<f64>()
            / samples as f64
    }

    /// True if the pattern has pronounced low-load windows (level below
    /// `threshold` for some part of its cycle) — the property that makes
    /// shutter profiling effective.
    pub fn has_low_phases(&self, threshold: f64) -> bool {
        let horizon = match self {
            LoadPattern::Constant { .. } => 1.0,
            LoadPattern::Diurnal { .. } => DAY_SECONDS,
            LoadPattern::Bursty { period, .. } => period.max(1.0),
            LoadPattern::OnOff {
                on_secs, off_secs, ..
            } => (on_secs + off_secs).max(1.0),
            LoadPattern::Phased { schedule } => schedule
                .iter()
                .map(|(d, _)| d.max(0.0))
                .sum::<f64>()
                .max(1.0),
        };
        (0..200).any(|i| self.level(horizon * i as f64 / 200.0) < threshold)
    }
}

impl Default for LoadPattern {
    fn default() -> Self {
        LoadPattern::steady()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let p = LoadPattern::Constant { level: 0.7 };
        for t in [0.0, 13.0, 5000.0] {
            assert_eq!(p.level(t), 0.7);
        }
    }

    #[test]
    fn diurnal_spans_low_to_high() {
        let p = LoadPattern::Diurnal {
            low: 0.2,
            high: 0.9,
            phase: 0.0,
        };
        // Midnight (t=0) should be at the low point, noon at the high point.
        assert!((p.level(0.0) - 0.2).abs() < 1e-9);
        assert!((p.level(DAY_SECONDS / 2.0) - 0.9).abs() < 1e-9);
        // Always within bounds.
        for i in 0..100 {
            let l = p.level(DAY_SECONDS * i as f64 / 100.0);
            assert!((0.2 - 1e-9..=0.9 + 1e-9).contains(&l));
        }
    }

    #[test]
    fn bursty_alternates() {
        let p = LoadPattern::Bursty {
            base: 0.3,
            peak: 1.0,
            period: 10.0,
            burst_len: 2.0,
        };
        assert_eq!(p.level(0.5), 1.0);
        assert_eq!(p.level(5.0), 0.3);
        assert_eq!(p.level(10.5), 1.0); // next period's burst
    }

    #[test]
    fn onoff_cycles() {
        let p = LoadPattern::OnOff {
            on_level: 0.9,
            off_level: 0.05,
            on_secs: 4.0,
            off_secs: 6.0,
        };
        assert_eq!(p.level(1.0), 0.9);
        assert_eq!(p.level(5.0), 0.05);
        assert_eq!(p.level(11.0), 0.9);
    }

    #[test]
    fn phased_schedule_cycles() {
        let p = LoadPattern::Phased {
            schedule: vec![(10.0, 0.2), (5.0, 0.8)],
        };
        assert_eq!(p.level(3.0), 0.2);
        assert_eq!(p.level(12.0), 0.8);
        assert_eq!(p.level(18.0), 0.2); // wrapped
    }

    #[test]
    fn empty_phased_defaults_to_full_load() {
        let p = LoadPattern::Phased { schedule: vec![] };
        assert_eq!(p.level(42.0), 1.0);
    }

    #[test]
    fn levels_always_clamped() {
        let p = LoadPattern::Constant { level: 3.0 };
        assert_eq!(p.level(0.0), 1.0);
        let p = LoadPattern::Diurnal {
            low: -1.0,
            high: 2.0,
            phase: 0.25,
        };
        for i in 0..50 {
            let l = p.level(i as f64 * 20.0);
            assert!((0.0..=1.0).contains(&l));
        }
    }

    #[test]
    fn negative_time_treated_as_zero() {
        let p = LoadPattern::Diurnal {
            low: 0.1,
            high: 0.9,
            phase: 0.0,
        };
        assert_eq!(p.level(-100.0), p.level(0.0));
    }

    #[test]
    fn mean_level_between_extremes() {
        let p = LoadPattern::OnOff {
            on_level: 1.0,
            off_level: 0.0,
            on_secs: 5.0,
            off_secs: 5.0,
        };
        let m = p.mean_level();
        assert!((0.4..=0.6).contains(&m), "mean {m}");
    }

    #[test]
    fn low_phase_detection() {
        let interactive = LoadPattern::OnOff {
            on_level: 0.9,
            off_level: 0.05,
            on_secs: 5.0,
            off_secs: 5.0,
        };
        let steady = LoadPattern::steady();
        assert!(interactive.has_low_phases(0.2));
        assert!(!steady.has_low_phases(0.2));
    }

    #[test]
    fn default_is_steady() {
        assert_eq!(LoadPattern::default(), LoadPattern::steady());
    }
}
