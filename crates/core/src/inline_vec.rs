//! A fixed-capacity vector stored inline.
//!
//! Walk records — the table-entry addresses one translation reads — have a
//! small structural bound (a radix walk's depth, a 2-D walk's
//! `levels * (levels + 1) + levels`), so they live in an array instead of a
//! heap `Vec` and a translation allocates nothing. The array dereferences to
//! the slice of pushed items.

use core::fmt;
use core::ops::Deref;

/// Up to `N` `Copy` items in insertion order, without heap allocation.
///
/// # Examples
///
/// ```
/// use vbi_core::inline_vec::InlineVec;
///
/// let mut walk: InlineVec<u64, 4> = InlineVec::new();
/// walk.push(0x1000);
/// walk.extend([0x2008, 0x3010]);
/// assert_eq!(walk.len(), 3);
/// assert_eq!(&walk[..], &[0x1000, 0x2008, 0x3010]);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        Self { len: 0, items: [T::default(); N] }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` items: the bound `N` is a
    /// structural limit, so exceeding it is a bug in the caller.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_unused_capacity() {
        let mut a: InlineVec<u64, 3> = InlineVec::new();
        a.extend([7, 8]);
        let b: InlineVec<u64, 3> = [7, 8].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "[7, 8]");
        assert!(InlineVec::<u64, 3>::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.extend([1, 2, 3]);
    }
}
