//! A fixed-width bitset over `0..n`: the saturation sets of the DD and
//! the generator sets of faces in [`crate::param`].

/// A set of indices below a fixed bound, one bit each.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Bits(Vec<u64>);

impl Bits {
    /// The empty set over `0..n`.
    pub fn empty(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    /// The set of all of `0..n`.
    pub fn full(n: usize) -> Self {
        let mut s = Bits(vec![u64::MAX; n / 64]);
        let rest = n % 64;
        if rest > 0 {
            s.0.push((1 << rest) - 1);
        }
        s
    }

    /// Adds `k`.
    pub fn insert(&mut self, k: usize) {
        self.0[k / 64] |= 1 << (k % 64);
    }

    /// Whether `k` is in the set.
    pub fn contains(&self, k: usize) -> bool {
        self.0[k / 64] & (1 << (k % 64)) != 0
    }

    /// Whether `self ∩ other` is a subset of `within` (without forming
    /// the intersection).
    pub fn meet_is_subset_of(&self, other: &Bits, within: &Bits) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .zip(&within.0)
            .all(|((a, b), w)| a & b & !w == 0)
    }

    /// `self ∩ other`.
    pub fn and(&self, other: &Bits) -> Bits {
        Bits(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }

    /// Makes `self` the set `a ∩ b` of the same width, in place.
    pub fn assign_and(&mut self, a: &Bits, b: &Bits) {
        for ((x, y), z) in self.0.iter_mut().zip(&a.0).zip(&b.0) {
            *x = y & z;
        }
    }

    /// Makes `self` the set of all of `0..n`, in place; `n` is the bound
    /// it was built with.
    pub fn fill(&mut self, n: usize) {
        debug_assert_eq!(self.0.len(), n.div_ceil(64));
        self.0.fill(u64::MAX);
        if let (Some(last), rest @ 1..) = (self.0.last_mut(), n % 64) {
            *last = (1 << rest) - 1;
        }
    }

    /// Keeps only the elements of `other`.
    pub fn intersect_with(&mut self, other: &Bits) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    /// The elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * w + bit
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_operations_across_words() {
        let n = 130;
        let mut a = Bits::empty(n);
        for k in [0, 63, 64, 129] {
            a.insert(k);
        }
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(a.contains(64) && !a.contains(65));
        let full = Bits::full(n);
        assert_eq!(full.iter().count(), n);
        assert!(a.meet_is_subset_of(&full, &a) && !full.meet_is_subset_of(&full, &a));
        let mut low = Bits::empty(n);
        for k in 0..65 {
            low.insert(k);
        }
        assert_eq!(a.and(&low).iter().collect::<Vec<_>>(), vec![0, 63, 64]);
        assert!(a.meet_is_subset_of(&low, &a.and(&low)));
        assert!(!a.meet_is_subset_of(&low, &Bits::empty(n)));
        let mut b = a.clone();
        b.intersect_with(&low);
        assert_eq!(b, a.and(&low));
        let mut c = Bits::empty(n);
        c.assign_and(&a, &low);
        assert_eq!(c, b);
        c.fill(n);
        assert_eq!(c, full);
        assert_eq!(Bits::full(0), Bits::empty(0));
        assert_eq!(Bits::full(128).iter().count(), 128);
    }
}
