//! The simulation time base.
//!
//! All latencies in the workspace are expressed in cycles of the 400-MHz
//! processors the paper models (Ross HyperSparc, Section 4). The paper's
//! Table 2 mixes cycle counts (block operations) with wall-clock times
//! (5 µs page faults); the cost model states the latter already
//! converted, as the paper does (5 µs × 400 MHz = 2000 cycles).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in 400-MHz CPU cycles.
///
/// `Cycles` is deliberately a thin transparent wrapper: it exists to stop
/// cycle counts from being confused with other `u64` quantities (block
/// numbers, page numbers, counters), not to hide the representation.
///
/// # Example
///
/// ```
/// use rnuma_sim::time::Cycles;
///
/// let trap = Cycles(2000);
/// assert_eq!(trap + Cycles(200), Cycles(2200));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u64);

/// CPU cycles per bus cycle (400-MHz CPUs over a 100-MHz MBus).
pub const CPU_CYCLES_PER_BUS_CYCLE: u64 = 4;

impl Cycles {
    /// Zero cycles; the start of simulated time.
    pub const ZERO: Cycles = Cycles(0);

    /// The largest representable time; used as "never".
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Converts whole bus cycles (100 MHz) into CPU cycles.
    ///
    /// ```
    /// use rnuma_sim::time::Cycles;
    /// assert_eq!(Cycles::from_bus_cycles(2), Cycles(8));
    /// ```
    #[must_use]
    pub fn from_bus_cycles(bus_cycles: u64) -> Cycles {
        Cycles(bus_cycles * CPU_CYCLES_PER_BUS_CYCLE)
    }

    /// Saturating subtraction; `a.saturating_sub(b)` is zero when `b > a`.
    #[must_use]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    #[must_use]
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// Returns the earlier of two times.
    #[must_use]
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction.
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Cycles {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(cycles: Cycles) -> u64 {
        cycles.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_cycle_ratio_is_four() {
        assert_eq!(Cycles::from_bus_cycles(1), Cycles(4));
        assert_eq!(Cycles::from_bus_cycles(25), Cycles(100));
    }

    #[test]
    fn arithmetic_behaves_like_u64() {
        let mut t = Cycles(100);
        t += Cycles(28);
        assert_eq!(t, Cycles(128));
        t -= Cycles(28);
        assert_eq!(t, Cycles(100));
        assert_eq!(t * 3, Cycles(300));
        assert_eq!(t / 4, Cycles(25));
        assert_eq!(Cycles(5).saturating_sub(Cycles(9)), Cycles::ZERO);
    }

    #[test]
    fn min_max_and_sum() {
        assert_eq!(Cycles(3).max(Cycles(7)), Cycles(7));
        assert_eq!(Cycles(3).min(Cycles(7)), Cycles(3));
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Cycles(42).to_string(), "42 cyc");
        assert_eq!(Cycles::ZERO.to_string(), "0 cyc");
    }

    #[test]
    fn conversions_to_and_from_u64() {
        let c: Cycles = 17u64.into();
        assert_eq!(u64::from(c), 17);
    }
}
