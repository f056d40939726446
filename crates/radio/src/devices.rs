//! The Fig. 1 device catalog: battery capacities of commercial mobile
//! devices, spanning three orders of magnitude from fitness band to laptop.
//!
//! Capacities are computed from public teardown/spec data (mAh × nominal
//! cell voltage) — the same sources the paper cites [3–17].

use crate::battery::Battery;
use core::fmt;

/// A named device with a battery capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Marketing name (as used on the Fig. 15–17 axes).
    pub name: &'static str,
    /// Battery capacity, watt-hours.
    pub battery_wh: f64,
}

impl Device {
    /// A fresh full battery for this device.
    pub fn battery(&self) -> Battery {
        Battery::from_watt_hours(self.battery_wh)
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2} Wh)", self.name, self.battery_wh)
    }
}

/// Nike+ FuelBand: 70 mAh @ 3.7 V.
pub const NIKE_FUEL_BAND: Device = Device {
    name: "Nike Fuel Band",
    battery_wh: 0.26,
};
/// Pebble watch: 130 mAh @ 3.7 V.
pub const PEBBLE_WATCH: Device = Device {
    name: "Pebble Watch",
    battery_wh: 0.48,
};
/// Apple Watch (1st gen): 205 mAh @ 3.8 V.
pub const APPLE_WATCH: Device = Device {
    name: "Apple Watch",
    battery_wh: 0.78,
};
/// Pivothead camera glasses: 440 mAh @ 3.7 V.
pub const PIVOTHEAD: Device = Device {
    name: "Pivothead",
    battery_wh: 1.63,
};
/// iPhone 6S: 1715 mAh @ 3.82 V.
pub const IPHONE_6S: Device = Device {
    name: "iPhone 6S",
    battery_wh: 6.55,
};
/// iPhone 6 Plus: 2915 mAh @ 3.82 V.
pub const IPHONE_6_PLUS: Device = Device {
    name: "iPhone 6 Plus",
    battery_wh: 11.1,
};
/// Nexus 6P: 3450 mAh @ 3.85 V.
pub const NEXUS_6P: Device = Device {
    name: "Nexus 6P",
    battery_wh: 13.3,
};
/// Microsoft Surface Book (base + keyboard batteries).
pub const SURFACE_BOOK: Device = Device {
    name: "Surface Book",
    battery_wh: 70.0,
};
/// MacBook Pro 13" Retina.
pub const MACBOOK_PRO_13: Device = Device {
    name: "MacBook Pro 13",
    battery_wh: 74.9,
};
/// MacBook Pro 15" Retina.
pub const MACBOOK_PRO_15: Device = Device {
    name: "MacBook Pro 15",
    battery_wh: 99.5,
};

/// The full Fig. 1 catalog, smallest battery first (the order of the
/// Fig. 15–17 matrix axes).
pub const CATALOG: [Device; 10] = [
    NIKE_FUEL_BAND,
    PEBBLE_WATCH,
    APPLE_WATCH,
    PIVOTHEAD,
    IPHONE_6S,
    IPHONE_6_PLUS,
    NEXUS_6P,
    SURFACE_BOOK,
    MACBOOK_PRO_13,
    MACBOOK_PRO_15,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sorted_by_capacity() {
        for pair in CATALOG.windows(2) {
            assert!(
                pair[0].battery_wh < pair[1].battery_wh,
                "{} before {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn three_orders_of_magnitude() {
        // The paper's motivating observation (Fig. 1).
        let smallest = CATALOG.first().unwrap().battery_wh;
        let largest = CATALOG.last().unwrap().battery_wh;
        let ratio = largest / smallest;
        assert!(
            (100.0..=1000.0).contains(&ratio),
            "laptop/wearable ratio {ratio:.0}"
        );
    }

    #[test]
    // The operands are compile-time constants, which is the point: the
    // catalog itself encodes the order-of-magnitude gap.
    #[allow(clippy::assertions_on_constants)]
    fn laptop_vs_phone_order_of_magnitude() {
        assert!(MACBOOK_PRO_15.battery_wh / IPHONE_6S.battery_wh > 10.0);
    }

    #[test]
    fn battery_constructor() {
        let b = APPLE_WATCH.battery();
        assert!((b.remaining().watt_hours() - 0.78).abs() < 1e-12);
    }
}
