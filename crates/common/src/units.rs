//! Thin newtypes for the physical quantities that cross crate boundaries.
//!
//! The wire and energy models do their internal math in raw SI `f64`s; these
//! wrappers exist so public APIs are unambiguous about what a number means
//! (`Joules`, not "some float"). They deliberately implement only the
//! arithmetic that makes dimensional sense for how they are used.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The raw numeric value in the canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Zero of this quantity.
            pub const ZERO: $name = $name(0.0);
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            /// Ratio of two like quantities (dimensionless).
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{:.4} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// A time duration in picoseconds.
    PicoSeconds,
    "ps"
);
quantity!(
    /// A length in millimetres (tile edges, link lengths).
    Millimeters,
    "mm"
);
quantity!(
    /// An area in square millimetres (structure and wire area).
    SquareMm,
    "mm^2"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);

impl PicoSeconds {
    /// Convert to seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0 * 1e-12
    }

    /// How many whole clock cycles this duration spans at `freq_hz`,
    /// rounded up (a signal that arrives mid-cycle is usable the next
    /// edge). A zero duration takes zero cycles.
    pub fn to_cycles_ceil(self, freq_hz: f64) -> u64 {
        let cycles = self.seconds() * freq_hz;
        cycles.ceil().max(0.0) as u64
    }
}

impl Millimeters {
    /// Convert to metres.
    #[inline]
    pub fn meters(self) -> f64 {
        self.0 * 1e-3
    }
}

impl Watts {
    /// Energy dissipated over a duration.
    #[inline]
    pub fn over(self, seconds: f64) -> Joules {
        Joules(self.0 * seconds)
    }

    /// Express as milliwatts.
    #[inline]
    pub fn milliwatts(self) -> f64 {
        self.0 * 1e3
    }
}

impl Joules {
    /// Express as nanojoules.
    #[inline]
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// Express as picojoules.
    #[inline]
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }
}

impl crate::persist::Persist for Joules {
    fn save(&self, w: &mut crate::persist::ByteWriter) {
        w.f64(self.0);
    }
    fn load(r: &mut crate::persist::ByteReader) -> Result<Self, crate::persist::PersistError> {
        Ok(Joules(r.f64()?))
    }
}

crate::json_as!(Joules as f64, |j| j.0, |v| Ok(Joules(v)));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ratio() {
        let a = Joules(2.0);
        let b = Joules(0.5);
        assert_eq!((a + b).value(), 2.5);
        assert_eq!((a - b).value(), 1.5);
        assert_eq!((a * 2.0).value(), 4.0);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn cycles_round_up() {
        // 4 GHz -> 250 ps per cycle
        assert_eq!(PicoSeconds(0.0).to_cycles_ceil(4e9), 0);
        assert_eq!(PicoSeconds(1.0).to_cycles_ceil(4e9), 1);
        assert_eq!(PicoSeconds(250.0).to_cycles_ceil(4e9), 1);
        assert_eq!(PicoSeconds(251.0).to_cycles_ceil(4e9), 2);
        assert_eq!(PicoSeconds(400.0).to_cycles_ceil(4e9), 2);
        assert_eq!(PicoSeconds(500.0).to_cycles_ceil(4e9), 2);
        assert_eq!(PicoSeconds(501.0).to_cycles_ceil(4e9), 3);
    }

    #[test]
    fn power_energy_relation() {
        let p = Watts(2.0);
        let e = p.over(0.5);
        assert_eq!(e.value(), 1.0);
        assert_eq!(e.nanojoules(), 1e9);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Joules = [Joules(1.0), Joules(2.0), Joules(3.0)].into_iter().sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn display_formats_unit() {
        assert_eq!(format!("{:.1}", Watts(1.25)), "1.2 W");
        assert_eq!(format!("{:?}", Millimeters(5.0)), "5 mm");
    }
}
