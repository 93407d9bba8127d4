//! A fixed piece of single-threaded floating-point work that the benchmark
//! owns, timed right next to every time that is gated.
//!
//! This host's single-thread speed drifts by tens of percent from minute to
//! minute, so a wall clock of seconds compares two stretches of machine
//! weather, not two programs. Dividing a wall clock by the wall clock of this
//! kernel, taken a moment earlier or later on the same thread, leaves the cost
//! of the work in units of what the host could do just then (`seq_wall_rel`,
//! and `setup_s` scaled back to seconds). No code of the repository is called
//! here, so only a change to the benchmark can move the unit.

use std::hint::black_box;
use std::time::Instant;

/// Doubles in the buffer: 8 MiB, twice the reference host's second-level
/// cache, so that a sweep streams through the last-level cache the host's
/// other tenants share, as a sweep over conditional likelihood vectors does.
/// A buffer that stays in the private cache misses half of the drift.
const BUFFER: usize = 1024 * 1024;
/// Sweeps over the buffer.
const SWEEPS: usize = 50;
/// What the kernel takes on the reference host in a quiet stretch. A time in
/// calibrated seconds is `time / calibration × this`: the seconds it would
/// have taken there and then.
pub const CALIBRATION_NOMINAL_S: f64 = 0.024;

/// A transition-matrix product per four-state site, the shape of `newview`.
fn sweep(clv: &mut [f64]) {
    const P: [[f64; 4]; 4] = [
        [0.91, 0.03, 0.03, 0.03],
        [0.03, 0.91, 0.03, 0.03],
        [0.03, 0.03, 0.91, 0.03],
        [0.03, 0.03, 0.03, 0.91],
    ];
    for site in clv.chunks_exact_mut(4) {
        let v = [site[0], site[1], site[2], site[3]];
        for (out, row) in site.iter_mut().zip(&P) {
            *out = row[0] * v[0] + row[1] * v[1] + row[2] * v[2] + row[3] * v[3];
        }
    }
}

/// Seconds the calibration kernel takes on the calling thread, now.
pub fn calibration_seconds() -> f64 {
    let mut clv = vec![0.25f64; BUFFER];
    let started = Instant::now();
    for _ in 0..SWEEPS {
        sweep(black_box(&mut clv));
    }
    black_box(&clv);
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_is_a_stochastic_matrix_product() {
        // Rows of `P` sum to 1, so a uniform site is a fixed point: the
        // kernel does the same arithmetic on every sweep, with no overflow or
        // denormal ever changing its speed.
        let mut clv = vec![0.25; 8];
        sweep(&mut clv);
        assert!(clv.iter().all(|&x| (x - 0.25).abs() < 1e-12));
        let mut site = [1.0, 0.0, 0.0, 0.0];
        sweep(&mut site);
        assert_eq!(site, [0.91, 0.03, 0.03, 0.03]);
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibration_seconds() > 0.0);
    }
}
