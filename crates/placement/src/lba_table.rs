//! Dense per-LBA state table shared by the policies.

/// Growable dense table mapping LBA → policy state. Block volumes address
/// a dense LBA space, so a flat vector beats a hash map on both memory and
/// the per-write hot path.
#[derive(Debug, Clone)]
pub struct LbaTable<T: Copy + Default> {
    entries: Vec<T>,
}

impl<T: Copy + Default> Default for LbaTable<T> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<T: Copy + Default> LbaTable<T> {
    /// Value for `lba` (default when never set).
    #[inline]
    pub fn get(&self, lba: u64) -> T {
        self.entries.get(lba as usize).copied().unwrap_or_default()
    }

    /// Set the value, growing as needed.
    #[inline]
    pub fn set(&mut self, lba: u64, value: T) {
        let idx = lba as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, T::default());
        }
        self.entries[idx] = value;
    }

    /// Approximate resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_until_set() {
        let mut t: LbaTable<u32> = LbaTable::default();
        assert_eq!(t.get(10), 0);
        t.set(10, 7);
        assert_eq!(t.get(10), 7);
        assert_eq!(t.get(9), 0);
        assert_eq!(t.get(11), 0);
    }

    #[test]
    fn grows_sparsely() {
        let mut t: LbaTable<u8> = LbaTable::default();
        t.set(1000, 3);
        assert_eq!(t.get(1000), 3);
        assert_eq!(t.get(500), 0);
    }

    #[test]
    fn memory_scales_with_type() {
        let mut a: LbaTable<u8> = LbaTable::default();
        let mut b: LbaTable<u64> = LbaTable::default();
        a.set(999, 1);
        b.set(999, 1);
        assert!(b.memory_bytes() >= 8 * a.memory_bytes() / 2);
    }
}
