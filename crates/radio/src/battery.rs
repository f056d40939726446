//! Battery model with draw accounting.

use braidio_units::Joules;

/// A simple energy store. The link simulator draws from two of these and
/// stops when either runs dry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    remaining: Joules,
}

impl Battery {
    /// A full battery with the given capacity.
    pub fn new(capacity: Joules) -> Self {
        assert!(capacity.is_physical(), "capacity must be non-negative");
        Battery {
            remaining: capacity,
        }
    }

    /// A full battery specified in watt-hours (the Fig. 1 unit).
    pub fn from_watt_hours(wh: f64) -> Self {
        Battery::new(Joules::from_watt_hours(wh))
    }

    /// Energy left.
    pub fn remaining(&self) -> Joules {
        self.remaining
    }

    /// True once the battery is exhausted.
    pub fn is_dead(&self) -> bool {
        self.remaining.joules() <= 0.0
    }

    /// Draw a fixed energy. Returns `true` if the battery covered the whole
    /// draw; `false` if it died partway (remaining is clamped to zero).
    #[inline]
    pub fn draw(&mut self, energy: Joules) -> bool {
        assert!(energy.is_physical(), "draw must be non-negative");
        let ok = self.remaining >= energy;
        self.remaining = (self.remaining - energy).clamped_non_negative();
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_accounting() {
        let mut b = Battery::from_watt_hours(1.0);
        assert_eq!(b.remaining(), Joules::new(3600.0));
        assert!(b.draw(Joules::new(1800.0)));
        assert_eq!(b.remaining(), Joules::new(1800.0));
        assert!(!b.is_dead());
    }

    #[test]
    fn dies_at_zero_and_clamps() {
        let mut b = Battery::new(Joules::new(10.0));
        assert!(!b.draw(Joules::new(15.0)));
        assert!(b.is_dead());
        assert_eq!(b.remaining(), Joules::ZERO);
    }
}
