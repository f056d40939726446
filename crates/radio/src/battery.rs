//! Battery model with draw accounting.

use braidio_units::{Joules, Seconds, Watts};

/// A simple energy store. The link simulator draws from two of these and
/// stops when either runs dry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity: Joules,
    remaining: Joules,
}

impl Battery {
    /// A full battery with the given capacity.
    pub fn new(capacity: Joules) -> Self {
        assert!(capacity.is_physical(), "capacity must be non-negative");
        Battery {
            capacity,
            remaining: capacity,
        }
    }

    /// A full battery specified in watt-hours (the Fig. 1 unit).
    pub fn from_watt_hours(wh: f64) -> Self {
        Battery::new(Joules::from_watt_hours(wh))
    }

    /// Nominal capacity.
    pub fn capacity(&self) -> Joules {
        self.capacity
    }

    /// Energy left.
    pub fn remaining(&self) -> Joules {
        self.remaining
    }

    /// State of charge in `[0, 1]`.
    pub fn soc(&self) -> f64 {
        if self.capacity.joules() == 0.0 {
            0.0
        } else {
            self.remaining / self.capacity
        }
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

    /// Draw a power for a duration.
    pub fn draw_power(&mut self, power: Watts, duration: Seconds) -> bool {
        self.draw(power * duration)
    }

    /// How long this battery sustains a constant power draw.
    pub fn lifetime_at(&self, power: Watts) -> Seconds {
        if power.watts() <= 0.0 {
            return Seconds::new(f64::INFINITY);
        }
        self.remaining / power
    }

    /// Refill to capacity.
    pub fn recharge(&mut self) {
        self.remaining = self.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_and_soc() {
        let mut b = Battery::from_watt_hours(1.0);
        assert_eq!(b.soc(), 1.0);
        assert!(b.draw(Joules::new(1800.0)));
        assert!((b.soc() - 0.5).abs() < 1e-12);
        assert!(!b.is_dead());
    }

    #[test]
    fn dies_at_zero_and_clamps() {
        let mut b = Battery::new(Joules::new(10.0));
        assert!(!b.draw(Joules::new(15.0)));
        assert!(b.is_dead());
        assert_eq!(b.remaining(), Joules::ZERO);
    }

    #[test]
    fn power_draw_and_lifetime() {
        let mut b = Battery::from_watt_hours(0.1); // 360 J
        let life = b.lifetime_at(Watts::from_milliwatts(100.0));
        assert!((life.seconds() - 3600.0).abs() < 1e-9);
        assert!(b.draw_power(Watts::from_milliwatts(100.0), Seconds::new(1800.0)));
        assert!((b.soc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_power_lives_forever() {
        let b = Battery::from_watt_hours(0.1);
        assert!(b.lifetime_at(Watts::ZERO).seconds().is_infinite());
    }

    #[test]
    fn recharge_restores() {
        let mut b = Battery::from_watt_hours(0.5);
        b.draw(Joules::new(500.0));
        b.recharge();
        assert_eq!(b.remaining(), b.capacity());
    }
}
