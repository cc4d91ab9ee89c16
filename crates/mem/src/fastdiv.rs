//! Division-free forms of the address and arbitration arithmetic every
//! memory access goes through.
//!
//! Each access maps its address onto a bank and a word, and each
//! arbitrated bank ranks its requesters by rotating priority. Written
//! naively that is two or three integer divisions per access and one per
//! requester. The forms here are exact replacements: a reciprocal
//! multiply precomputed per divisor (addresses are 16-bit), and a
//! compare-and-subtract where the operands are already in range.

/// Exact division of 16-bit dividends by a divisor fixed at construction,
/// as one multiply and one shift.
///
/// With `m = floor(2^32 / d) + 1`, `(x * m) >> 32 == x / d` for every
/// `x < 2^16` and every `d >= 1`: `x * m / 2^32` exceeds `x / d` by at
/// most `x / 2^32`, which stays below the gap of at least `1 / d` to the
/// next quotient whenever `x * d < 2^32`, so for every `d <= 2^16 + 1`.
/// Larger divisors give quotient 0, and the gap `(d - x) / d` to
/// quotient 1 still exceeds `x / 2^32`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Divisor {
    d: u64,
    m: u64,
}

impl Divisor {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) fn new(d: usize) -> Divisor {
        assert!(d > 0, "division by zero");
        let d = d as u64;
        Divisor {
            d,
            m: (1u64 << 32) / d + 1,
        }
    }

    /// `x / d`.
    #[inline]
    pub(crate) fn div(self, x: u16) -> u16 {
        ((u64::from(x) * self.m) >> 32) as u16
    }

    /// `x % d`.
    #[inline]
    pub(crate) fn rem(self, x: u16) -> u16 {
        (u64::from(x) - u64::from(self.div(x)) * self.d) as u16
    }
}

/// The rotating-priority distance `(core + n - ptr) % n` of requester
/// `core` from priority pointer `ptr` among `n` cores, for `core, ptr < n`:
/// the sum lies in `[1, 2n)`, so one conditional subtraction reduces it.
#[inline]
pub(crate) fn rr_distance(core: usize, ptr: usize, n: usize) -> usize {
    debug_assert!(core < n && ptr < n, "operands in range");
    let t = core + n - ptr;
    if t >= n {
        t - n
    } else {
        t
    }
}

/// The pointer after `winner` is served: `(winner + 1) % n` for
/// `winner < n`.
#[inline]
pub(crate) fn rr_next(winner: usize, n: usize) -> usize {
    debug_assert!(winner < n, "winner in range");
    if winner + 1 == n {
        0
    } else {
        winner + 1
    }
}

/// The smallest [`rr_distance`] from pointer `ptr` among `n` cores of any
/// core in `members` (bit per core id, every member below `n`, `n <= 64`,
/// `ptr < n`): the member mask rotated right by `ptr` within `n` bits
/// puts each member at its distance, so the lowest set bit is the
/// nearest. `members` must be non-empty.
#[inline]
pub(crate) fn rr_min_distance(members: u32, ptr: usize, n: usize) -> u32 {
    debug_assert!(members != 0 && ptr < n && n <= 64, "operands in range");
    let m = u64::from(members);
    let rotated = if ptr == 0 {
        m
    } else {
        m >> ptr | m << (n - ptr)
    };
    rotated.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every 16-bit dividend against `/` and `%`, for small divisors,
    /// powers of two, the paper's bank and memory sizes and divisors past
    /// the dividend range.
    #[test]
    fn divisor_matches_hardware_division_for_every_u16() {
        let divisors = (1..=64usize)
            .chain((0..=34).map(|s| 1usize << s))
            .chain([3, 6144, 2048, 49_152, 32_768, 65_535, 65_537, 100_000]);
        for d in divisors {
            let div = Divisor::new(d);
            for x in 0..=u16::MAX {
                let (q, r) = (x as usize / d, x as usize % d);
                assert_eq!(div.div(x) as usize, q, "{x} / {d}");
                assert_eq!(div.rem(x) as usize, r, "{x} % {d}");
            }
        }
    }

    proptest! {
        #[test]
        fn rr_distance_matches_the_modulo_form(n in 1usize..=64, core in 0usize..64, ptr in 0usize..64) {
            let (core, ptr) = (core % n, ptr % n);
            prop_assert_eq!(rr_distance(core, ptr, n), (core + n - ptr) % n);
            prop_assert_eq!(rr_next(core, n), (core + 1) % n);
        }

        #[test]
        fn rr_min_distance_is_the_nearest_member(n in 1usize..=64, members in any::<u32>(), ptr in 0usize..64) {
            let members = if n < 32 { members & ((1 << n) - 1) } else { members };
            prop_assume!(members != 0);
            let ptr = ptr % n;
            let nearest = (0..32usize)
                .filter(|&c| members & (1 << c) != 0)
                .map(|c| rr_distance(c, ptr, n))
                .min()
                .unwrap();
            prop_assert_eq!(rr_min_distance(members, ptr, n) as usize, nearest);
        }
    }
}
