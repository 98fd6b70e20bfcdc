//! A sparse, paged per-line table: one entry per line index, the default
//! value for a line never touched.
//!
//! Lines are grouped into fixed pages of [`PAGE_LINES`] entries, and a
//! page is allocated the first time one of its lines is written through
//! [`LineTable::get_mut`]. A 16 GiB device whose shadow and clone regions
//! sit past all of its 2^28 data lines therefore costs a few pages for
//! the lines it touches, not a table reaching up to the highest one.
//! Lookups are two array indexes, and scans walk the allocated pages in
//! index order.

/// Lines per page: 4 096 entries.
const PAGE_LINES: usize = 4096;

/// The page table; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct LineTable<T> {
    pages: Vec<Option<Box<[T]>>>,
}

impl<T> Default for LineTable<T> {
    fn default() -> Self {
        Self { pages: Vec::new() }
    }
}

fn split(idx: u64) -> (usize, usize) {
    (
        (idx / PAGE_LINES as u64) as usize,
        (idx % PAGE_LINES as u64) as usize,
    )
}

impl<T: Copy + Default> LineTable<T> {
    /// The entry of line `idx` (the default when its page is absent).
    pub(crate) fn get(&self, idx: u64) -> T {
        let (page, off) = split(idx);
        match self.pages.get(page) {
            Some(Some(p)) => p[off],
            _ => T::default(),
        }
    }

    /// The entry of line `idx`, allocating its page first.
    pub(crate) fn get_mut(&mut self, idx: u64) -> &mut T {
        let (page, off) = split(idx);
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let p = self.pages[page]
            .get_or_insert_with(|| vec![T::default(); PAGE_LINES].into_boxed_slice());
        &mut p[off]
    }

    /// The entry of line `idx` if its page is allocated; never allocates.
    pub(crate) fn existing_mut(&mut self, idx: u64) -> Option<&mut T> {
        let (page, off) = split(idx);
        match self.pages.get_mut(page) {
            Some(Some(p)) => Some(&mut p[off]),
            _ => None,
        }
    }

    /// Every entry of the allocated pages as `(index, entry)`, in
    /// ascending index order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.pages.iter().enumerate().flat_map(|(page, p)| {
            let base = (page * PAGE_LINES) as u64;
            p.iter().flat_map(move |p| {
                p.iter()
                    .enumerate()
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
    fn reads_and_existing_lookups_never_allocate() {
        let mut t = LineTable::<u64>::default();
        assert_eq!(t.get(5_000_000), 0);
        assert!(t.existing_mut(7).is_none());
        assert_eq!(t.allocated_pages(), 0);
        *t.get_mut(9) = 4;
        assert_eq!(t.get(9), 4);
        assert_eq!(t.existing_mut(10).copied(), Some(0));
        assert!(t.existing_mut(PAGE_LINES as u64).is_none());
        assert_eq!(t.allocated_pages(), 1);
    }

    #[test]
    fn entries_walk_in_index_order() {
        let mut t = LineTable::<u64>::default();
        for idx in [70_000u64, 3, 4096, 4095, 1 << 30] {
            *t.get_mut(idx) = idx + 1;
        }
        let seen: Vec<(u64, u64)> = t.entries().filter(|&(_, v)| v != 0).collect();
        let want: Vec<(u64, u64)> = [3u64, 4095, 4096, 70_000, 1 << 30]
            .iter()
            .map(|&i| (i, i + 1))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(t.entries().count(), 4 * PAGE_LINES);
    }
}
