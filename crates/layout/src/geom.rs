//! Integer geometry in nanometres.

use std::fmt;

/// A point in nanometres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point {
    /// X coordinate, nm.
    pub x: i64,
    /// Y coordinate, nm.
    pub y: i64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Manhattan distance to another point.
    pub(crate) fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle `[x0, x1) × [y0, y1)` in nanometres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x0: i64,
    /// Bottom edge.
    pub y0: i64,
    /// Right edge (exclusive).
    pub x1: i64,
    /// Top edge (exclusive).
    pub y1: i64,
}

impl Rect {
    /// Creates a rectangle, normalising the corner order.
    pub fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect {
            x0: x0.min(x1),
            y0: y0.min(y1),
            x1: x0.max(x1),
            y1: y0.max(y1),
        }
    }

    /// Width in nm.
    pub fn width(&self) -> i64 {
        self.x1 - self.x0
    }

    /// Height in nm.
    pub fn height(&self) -> i64 {
        self.y1 - self.y0
    }

    /// Area in nm².
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Area in mm².
    pub(crate) fn area_mm2(&self) -> f64 {
        self.area() as f64 * 1e-12
    }

    /// True if the rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// True if `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.x0 <= other.x0 && self.y0 <= other.y0 && self.x1 >= other.x1 && self.y1 >= other.y1
    }

    /// The smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}] x [{}, {}] ({}x{} nm)",
            self.x0,
            self.x1,
            self.y0,
            self.y1,
            self.width(),
            self.height()
        )
    }
}

/// Half-perimeter wirelength of a set of points (the classic placement
/// cost), in nm. Returns 0 for fewer than two points.
pub fn half_perimeter(points: &[Point]) -> i64 {
    if points.len() < 2 {
        return 0;
    }
    let (mut xmin, mut xmax) = (i64::MAX, i64::MIN);
    let (mut ymin, mut ymax) = (i64::MAX, i64::MIN);
    for p in points {
        xmin = xmin.min(p.x);
        xmax = xmax.max(p.x);
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    (xmax - xmin) + (ymax - ymin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_normalises_corners() {
        let r = Rect::new(10, 20, 0, 5);
        assert_eq!(r, Rect::new(0, 5, 10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 15);
    }

    #[test]
    fn area() {
        let r = Rect::new(0, 0, 1000, 2000);
        assert_eq!(r.area(), 2_000_000);
        assert!((r.area_mm2() - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn overlap_semantics_are_half_open() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 20, 10); // touching edges: no overlap
        assert!(!a.overlaps(&b));
        let c = Rect::new(9, 9, 20, 20);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn containment() {
        let outer = Rect::new(0, 0, 100, 100);
        let inner = Rect::new(10, 10, 90, 90);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, -5, 30, 5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, Rect::new(0, -5, 30, 10));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
    }

    #[test]
    fn hpwl_basic() {
        let pts = [Point::new(0, 0), Point::new(10, 0), Point::new(5, 20)];
        assert_eq!(half_perimeter(&pts), 30);
        assert_eq!(half_perimeter(&pts[..1]), 0);
        assert_eq!(half_perimeter(&[]), 0);
    }

    #[test]
    fn displays() {
        assert_eq!(Point::new(1, 2).to_string(), "(1, 2)");
        assert!(Rect::new(0, 0, 5, 5).to_string().contains("5x5 nm"));
    }
}
