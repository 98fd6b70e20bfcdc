//! A sparse, paged per-line table: one `u64` per line index, zero for a
//! line never set.
//!
//! Lines are grouped into fixed pages of [`PAGE_LINES`] entries, and a
//! page is allocated the first time one of its lines is set to a nonzero
//! value. A 16 GiB device whose shadow and clone regions sit past all of
//! its 2^28 data lines therefore costs a few pages for the lines it
//! touches, not a table reaching up to the highest one. Lookups are two
//! array indexes, and scans walk the allocated pages in index order.

/// Lines per page: 4 096 entries, 32 KiB.
const PAGE_LINES: usize = 4096;

/// The page table; see the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineTable {
    pages: Vec<Option<Box<[u64]>>>,
}

fn split(idx: u64) -> (usize, usize) {
    (
        (idx / PAGE_LINES as u64) as usize,
        (idx % PAGE_LINES as u64) as usize,
    )
}

impl LineTable {
    /// The value of line `idx` (zero when never set).
    pub(crate) fn get(&self, idx: u64) -> u64 {
        let (page, off) = split(idx);
        match self.pages.get(page) {
            Some(Some(p)) => p[off],
            _ => 0,
        }
    }

    /// The value of line `idx`, allocating its page first.
    pub(crate) fn get_mut(&mut self, idx: u64) -> &mut u64 {
        let (page, off) = split(idx);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let p = self.pages[page].get_or_insert_with(|| vec![0; PAGE_LINES].into_boxed_slice());
        &mut p[off]
    }

    /// Sets line `idx`. Setting zero never allocates a page.
    pub(crate) fn set(&mut self, idx: u64, value: u64) {
        if value == 0 {
            self.take(idx);
        } else {
            *self.get_mut(idx) = value;
        }
    }

    /// Returns line `idx` and resets it to zero.
    pub(crate) fn take(&mut self, idx: u64) -> u64 {
        let (page, off) = split(idx);
        match self.pages.get_mut(page) {
            Some(Some(p)) => std::mem::take(&mut p[off]),
            _ => 0,
        }
    }

    /// Every nonzero line as `(index, value)`, in ascending index order.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().enumerate().flat_map(|(page, p)| {
            let base = (page * PAGE_LINES) as u64;
            p.iter().flat_map(move |p| {
                p.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0)
                    .map(move |(off, &v)| (base + off as u64, v))
            })
        })
    }

    /// Pages allocated so far.
    #[cfg(test)]
    pub(crate) fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_writes_and_takes_never_allocate() {
        let mut t = LineTable::default();
        t.set(5_000_000, 0);
        assert_eq!(t.take(7), 0);
        assert_eq!(t.allocated_pages(), 0);
        t.set(9, 4);
        assert_eq!(t.take(9), 4);
        assert_eq!(t.get(9), 0);
        assert_eq!(t.nonzero().count(), 0);
    }

    #[test]
    fn nonzero_walks_in_index_order() {
        let mut t = LineTable::default();
        for idx in [70_000u64, 3, 4096, 4095, 1 << 30] {
            t.set(idx, idx + 1);
        }
        let seen: Vec<(u64, u64)> = t.nonzero().collect();
        let want: Vec<(u64, u64)> = [3u64, 4095, 4096, 70_000, 1 << 30]
            .iter()
            .map(|&i| (i, i + 1))
            .collect();
        assert_eq!(seen, want);
    }
}
