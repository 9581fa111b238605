//! The host reference: a fixed piece of work of the benchmark's own, timed
//! beside every op, by which the op's time is scaled.
//!
//! The host is a two-thread virtual machine whose threads share execution
//! resources with each other and with other tenants. Its speed moves in
//! spells of one to several minutes: the same op takes 0.21 s, then 0.31 s
//! for a minute, then 0.21 s again, and a run lies mostly inside or outside a
//! spell, so no statistic over one run's ops removes it. A dependent integer
//! chain does not see the spells at all (the clock and the frequency are
//! steady); branchy floating-point code that allocates — the joins' kind of
//! work, and most of the index's — sees all of it. This kernel is that kind
//! of work: Voronoi cells by half-plane clipping over a fixed point set, in
//! the benchmark's own code, so that no change to the product moves it. One
//! pass is read before and after every op, and the op's time is reported in
//! *reference seconds*: `wall × NOMINAL_PASS_S ÷ (mean of the two readings)`
//! — what the op would have taken had the host run the kernel at its quiet
//! speed. Measured over half an hour with spells (README.md, "Noise
//! policy"): raw op medians of 30 s windows spread 10–18 % (distance between
//! quartiles over median), scaled ones 2.5–7 %.

use std::hint::black_box;
use std::time::Instant;

/// One pass of the kernel on the quiet host, in seconds. Only a scale: it
/// makes a reference second read like a second of the quiet host.
pub const NOMINAL_PASS_S: f64 = 0.018;

const SITES: usize = 4096;
const CELLS_PER_PASS: usize = 20_000;
const NEIGHBOURS: usize = 23;

pub struct HostRef {
    sites: Vec<(f64, f64)>,
}

impl Default for HostRef {
    fn default() -> Self {
        // A fixed point set from a fixed generator: the kernel's work never
        // depends on the seed, the workload or the product.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        HostRef {
            sites: (0..SITES).map(|_| (unit(), unit())).collect(),
        }
    }
}

impl HostRef {
    /// Runs one pass and returns how long it took, in seconds.
    pub fn read(&self) -> f64 {
        let start = Instant::now();
        black_box(self.pass(black_box(CELLS_PER_PASS)));
        start.elapsed().as_secs_f64()
    }

    /// Turns a wall time into reference seconds, given the readings taken
    /// before and after it.
    pub fn scale(before: f64, after: f64) -> f64 {
        NOMINAL_PASS_S / (0.5 * (before + after))
    }

    /// `cells` Voronoi cells of the unit square, each clipped by the
    /// bisectors to a fixed choice of other sites; returns their total area
    /// (twice), so the work cannot be optimised away.
    ///
    /// Never inlined, and placed on a 64-byte boundary: where these loops
    /// fall within a 32-byte fetch window decides whether a pass takes 17 or
    /// 22 ms, and without the directive that is decided by the size of
    /// whatever the linker put in front — six builds that differed in one
    /// unrelated function read 16.5, 16.7, 17.0, 17.4, 21.2 and 22.0 ms. A
    /// change to the product must not move the reference. The function has
    /// its own section (rustc's default), the directive raises that
    /// section's alignment, and every loop keeps its offset within it.
    #[inline(never)]
    fn pass(&self, cells: usize) -> f64 {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        // SAFETY: an assembler directive; it emits padding no-ops only.
        unsafe {
            core::arch::asm!(".p2align 6", options(nomem, nostack, preserves_flags));
        }
        let sites = &self.sites;
        let mut area = 0.0;
        let mut cell: Vec<(f64, f64)> = Vec::with_capacity(32);
        let mut next: Vec<(f64, f64)> = Vec::with_capacity(32);
        for c in 0..cells {
            let site = sites[c % sites.len()];
            cell.clear();
            cell.extend_from_slice(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
            for k in 1..=NEIGHBOURS {
                let other = sites[(c * 31 + k * 7) % sites.len()];
                // Keep the side of the bisector that is nearer to `site`.
                let (nx, ny) = (other.0 - site.0, other.1 - site.1);
                let offset = 0.5
                    * (other.0 * other.0 + other.1 * other.1 - site.0 * site.0 - site.1 * site.1);
                next.clear();
                for i in 0..cell.len() {
                    let (a, b) = (cell[i], cell[(i + 1) % cell.len()]);
                    let da = nx * a.0 + ny * a.1 - offset;
                    let db = nx * b.0 + ny * b.1 - offset;
                    if da <= 0.0 {
                        next.push(a);
                    }
                    if (da < 0.0) != (db < 0.0) && da != db {
                        let t = da / (da - db);
                        next.push((a.0 + t * (b.0 - a.0), a.1 + t * (b.1 - a.1)));
                    }
                }
                std::mem::swap(&mut cell, &mut next);
                if cell.is_empty() {
                    break;
                }
            }
            for i in 0..cell.len() {
                let (a, b) = (cell[i], cell[(i + 1) % cell.len()]);
                area += a.0 * b.1 - a.1 * b.0;
            }
        }
        area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_pass() {
        let host = HostRef::default();
        let area = host.pass(500);
        assert_eq!(area, host.pass(500));
        // Cells lie inside the unit square and none is empty on average.
        assert!(area > 0.0 && area < 2.0 * 500.0);
        assert!(host.read() > 0.0);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn the_kernel_sits_on_a_64_byte_boundary() {
        let pass: fn(&HostRef, usize) -> f64 = HostRef::pass;
        assert_eq!(pass as usize % 64, 0);
    }

    #[test]
    fn scaling_is_the_identity_on_the_quiet_host() {
        assert_eq!(HostRef::scale(NOMINAL_PASS_S, NOMINAL_PASS_S), 1.0);
        // A host running the kernel at half speed halves what it reports.
        assert_eq!(
            HostRef::scale(2.0 * NOMINAL_PASS_S, 2.0 * NOMINAL_PASS_S),
            0.5
        );
    }
}
