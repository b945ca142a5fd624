//! `--seed` → workload inputs. Pure: the same seed gives the same specs,
//! and the libraries only ever see the generated specs.

use laqa_sim::{CampaignSpec, TestKind, TraceKind, Transport};
use laqa_trace::TraceHasher;

/// SplitMix64 step: the one generator every derivation below draws from,
/// so inputs do not depend on any library's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` distinct session seeds for `workload`, 31 bits each so they read
/// well in cell labels. The workload name salts the stream: two workloads
/// never share session seeds.
pub fn session_seeds(seed: u64, workload: &str, n: usize) -> Vec<u64> {
    let salt = TraceHasher::new().bytes(workload.as_bytes()).finish();
    let mut rng = SplitMix(seed ^ salt);
    let mut out: Vec<u64> = Vec::with_capacity(n);
    while out.len() < n {
        let s = rng.next_u64() >> 33;
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// The paper's Tables 1–2 grid: T1 + T2 × five `K_max` × seeds.
pub fn tables(seed: u64, smoke: bool) -> CampaignSpec {
    if smoke {
        let seeds = session_seeds(seed, "tables", 1);
        return CampaignSpec::grid(&TestKind::ALL, &[2, 4], &seeds, 10.0);
    }
    let seeds = session_seeds(seed, "tables", 5);
    CampaignSpec::grid(&TestKind::ALL, &[2, 3, 4, 5, 8], &seeds, 90.0)
}

/// The hostile corpus: every trace family × every controller on T1 with
/// the fault suite at half intensity.
pub fn hostile(seed: u64, smoke: bool) -> CampaignSpec {
    let (k_values, n_seeds, duration): (&[u32], usize, f64) = if smoke {
        (&[2], 1, 6.0)
    } else {
        (&[2, 4], 2, 60.0)
    };
    let seeds = session_seeds(seed, "hostile", n_seeds);
    CampaignSpec::hostile_grid(
        &[TestKind::T1],
        &TraceKind::ALL,
        &Transport::ALL,
        k_values,
        &seeds,
        duration,
        Some(0.5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure() {
        assert_eq!(
            session_seeds(1999, "tables", 5),
            session_seeds(1999, "tables", 5)
        );
        assert_eq!(tables(1999, false), tables(1999, false));
        assert_eq!(hostile(4242, false), hostile(4242, false));
    }

    #[test]
    fn seeds_differ_across_seed_and_workload() {
        assert_ne!(
            session_seeds(1999, "tables", 5),
            session_seeds(2000, "tables", 5)
        );
        assert_ne!(
            session_seeds(1999, "tables", 2),
            session_seeds(1999, "hostile", 2)
        );
        let s = session_seeds(7, "tables", 5);
        for (i, a) in s.iter().enumerate() {
            assert!(*a < 1 << 31);
            assert!(
                s[i + 1..].iter().all(|b| b != a),
                "session seeds are distinct"
            );
        }
    }

    #[test]
    fn grids_have_the_documented_sizes() {
        let t = tables(1999, false);
        assert_eq!(t.len(), 50);
        assert!(t.sessions.iter().all(|s| s.duration == 90.0));
        let h = hostile(1999, false);
        assert_eq!(h.len(), 64);
        assert!(h.sessions.iter().all(|s| s.fault_intensity == Some(0.5)));
        assert!(tables(1999, true).len() <= 4);
        assert!(hostile(1999, true).len() <= 16);
    }

    #[test]
    fn splitmix_is_uniform_enough_and_in_range() {
        let mut rng = SplitMix(1);
        let draws: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!(draws.iter().all(|x| (0.0..1.0).contains(x)));
    }
}
