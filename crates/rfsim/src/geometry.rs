//! Planar geometry for antenna and device placement.
//!
//! The paper's measurements happen on a bench in a 6 m × 6 m room; a 2-D
//! plane is all the geometry the models need. Positions are in meters.

use braidio_units::Meters;
use core::fmt;
use core::ops::{Add, Mul, Sub};

/// A point (or displacement) in the 2-D experiment plane, meters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

impl Point {
    /// The origin.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// A point from coordinates in meters.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point) -> Meters {
        Meters::new((self.x - other.x).hypot(self.y - other.y))
    }

    /// Euclidean norm of this point treated as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Unit vector from `self` toward `other`. Returns `None` when the
    /// points coincide.
    pub fn direction_to(self, other: Point) -> Option<Point> {
        let d = other - self;
        let n = d.norm();
        if n == 0.0 {
            None
        } else {
            Some(Point::new(d.x / n, d.y / n))
        }
    }

    /// A point displaced by `offset` meters along `direction` (assumed to be
    /// a unit vector).
    #[inline]
    pub fn offset_along(self, direction: Point, offset: Meters) -> Point {
        self + direction * offset.meters()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}) m", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

/// `n` points evenly spaced on a circle of radius `r` around `center`,
/// starting on the +x axis and proceeding counter-clockwise. Deterministic:
/// the layout is a pure function of the arguments (fleet star topologies).
pub fn ring(center: Point, r: Meters, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let theta = 2.0 * core::f64::consts::PI * i as f64 / n.max(1) as f64;
            Point::new(
                center.x + r.meters() * theta.cos(),
                center.y + r.meters() * theta.sin(),
            )
        })
        .collect()
}

/// `n` points on the x axis starting at `origin`, spaced `spacing` apart
/// (fleet rooms: one device pair per line position).
pub fn line(origin: Point, spacing: Meters, n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new(origin.x + i as f64 * spacing.meters(), origin.y))
        .collect()
}

/// A rectangular sweep grid over the experiment plane (used for the Fig. 4b
/// heat map).
#[derive(Debug, Clone)]
pub struct Grid {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
    /// Number of sample columns (x direction).
    pub nx: usize,
    /// Number of sample rows (y direction).
    pub ny: usize,
}

impl Grid {
    /// A square grid spanning `[0, side] × [0, side]` with `n × n` samples.
    pub fn square(side: Meters, n: usize) -> Self {
        Grid {
            min: Point::ORIGIN,
            max: Point::new(side.meters(), side.meters()),
            nx: n,
            ny: n,
        }
    }

    /// The sample point at column `ix`, row `iy`.
    pub fn point(&self, ix: usize, iy: usize) -> Point {
        assert!(ix < self.nx && iy < self.ny, "grid index out of range");
        let fx = if self.nx > 1 {
            ix as f64 / (self.nx - 1) as f64
        } else {
            0.0
        };
        let fy = if self.ny > 1 {
            iy as f64 / (self.ny - 1) as f64
        } else {
            0.0
        };
        Point::new(
            self.min.x + fx * (self.max.x - self.min.x),
            self.min.y + fy * (self.max.y - self.min.y),
        )
    }

    /// Iterate all sample points in row-major order with their indices.
    pub fn points(&self) -> impl Iterator<Item = (usize, usize, Point)> + '_ {
        (0..self.ny).flat_map(move |iy| (0..self.nx).map(move |ix| (ix, iy, self.point(ix, iy))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b).meters() - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn direction_to_unit_vector() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let d = a.direction_to(b).unwrap();
        assert!((d.x - 1.0).abs() < 1e-12 && d.y.abs() < 1e-12);
        assert!(a.direction_to(a).is_none());
    }

    #[test]
    fn offset_along_direction() {
        let a = Point::new(1.0, 1.0);
        let dir = Point::new(0.0, 1.0);
        let moved = a.offset_along(dir, Meters::from_cm(50.0));
        assert!((moved.y - 1.5).abs() < 1e-12);
    }

    #[test]
    fn grid_corners_and_count() {
        let g = Grid::square(Meters::new(2.0), 5);
        assert_eq!(g.nx * g.ny, 25);
        assert_eq!(g.point(0, 0), Point::ORIGIN);
        assert_eq!(g.point(4, 4), Point::new(2.0, 2.0));
        assert_eq!(g.point(2, 0), Point::new(1.0, 0.0));
        assert_eq!(g.points().count(), 25);
    }

    #[test]
    #[should_panic(expected = "grid index out of range")]
    fn grid_bounds_checked() {
        let g = Grid::square(Meters::new(1.0), 2);
        let _ = g.point(2, 0);
    }

    #[test]
    fn ring_points_sit_on_the_circle() {
        let c = Point::new(1.0, -2.0);
        let pts = ring(c, Meters::new(3.0), 7);
        assert_eq!(pts.len(), 7);
        for p in &pts {
            assert!((c.distance(*p).meters() - 3.0).abs() < 1e-12);
        }
        // First point on the +x axis.
        assert!((pts[0].x - 4.0).abs() < 1e-12 && (pts[0].y + 2.0).abs() < 1e-12);
    }

    #[test]
    fn line_points_are_evenly_spaced() {
        let pts = line(Point::ORIGIN, Meters::new(2.0), 4);
        assert_eq!(pts.len(), 4);
        for (i, p) in pts.iter().enumerate() {
            assert!((p.x - 2.0 * i as f64).abs() < 1e-12);
            assert_eq!(p.y, 0.0);
        }
    }
}
