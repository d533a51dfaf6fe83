//! Read-only memory-mapped file buffers for the out-of-core trace reader.
//!
//! This is the single module in the crate (and the workspace's model code)
//! that touches `unsafe`: a minimal, hand-written binding to `mmap(2)` /
//! `munmap(2)` / `madvise(2)` — std already links libc on unix, so no
//! external crate is needed. Everything above this module sees only safe
//! `&[u8]` access.
//!
//! Why mmap at all: the columnar `.twgc` reader promises *bounded resident
//! memory* on arbitrarily large traces. Mapping the file gives zero-copy
//! access to each checksummed chunk frame, and [`MappedBytes::advise_dont_need`]
//! returns consumed pages to the OS so a sequential scan's RSS stays flat
//! instead of growing to the file size.
//!
//! On non-unix platforms (and for in-memory tests) the same type wraps an
//! owned buffer; the API is identical, only the residency guarantee is
//! platform-specific.

use std::fs::File;
use std::io;
use std::path::Path;

/// Hand-written libc bindings; the only unsafe code in the crate.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MADV_DONTNEED: i32 = 4;
    /// `mmap` failure sentinel (`MAP_FAILED`).
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    unsafe extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// An owned read-only private mapping of a whole file.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ) and private; concurrent
    // reads from multiple threads are safe, and the pages stay valid until
    // Drop unmaps them.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `file` read-only. `len` must be non-zero and
        /// no larger than the file.
        pub(super) fn new(file: &File, len: usize) -> io::Result<Mapping> {
            debug_assert!(len > 0);
            // SAFETY: arguments follow the mmap contract — NULL hint, a
            // length validated non-zero by the caller, a file descriptor
            // that outlives the call (the mapping itself survives fd
            // close), and offset 0.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED || ptr.is_null() {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping {
                ptr: NonNull::new(ptr.cast()).expect("mmap returned non-null"),
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the borrow cannot outlive the mapping.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }

        /// Tells the kernel the byte range will not be needed again
        /// (best-effort; advice failures are ignored).
        pub(super) fn dont_need(&self, start: usize, end: usize) {
            const PAGE: usize = 4096;
            // Only whole pages strictly inside the range may be dropped.
            let lo = start.next_multiple_of(PAGE);
            let hi = (end.min(self.len) / PAGE) * PAGE;
            if hi > lo {
                // SAFETY: [lo, hi) is page-aligned and inside the live
                // mapping; MADV_DONTNEED on a private read-only file
                // mapping merely drops clean pages (re-faulted from the
                // file on next access).
                let rc = unsafe { madvise(self.ptr.as_ptr().add(lo).cast(), hi - lo, MADV_DONTNEED) };
                let _ = rc;
            }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region returned by mmap, once.
            let rc = unsafe { munmap(self.ptr.as_ptr().cast(), self.len) };
            debug_assert_eq!(rc, 0, "munmap failed");
        }
    }
}

/// A read-only byte buffer that is either a zero-copy file mapping (unix)
/// or an owned in-memory buffer (tests, other platforms, empty files).
#[derive(Debug)]
pub struct MappedBytes {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    #[cfg(unix)]
    Mapped(sys::Mapping),
    Owned(Vec<u8>),
}

impl MappedBytes {
    /// Maps `path` read-only. Falls back to reading the file into memory
    /// where mapping is unavailable (non-unix, zero-length files).
    pub fn open(path: &Path) -> io::Result<MappedBytes> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        {
            if len > 0 {
                let mapping = sys::Mapping::new(&file, len as usize)?;
                return Ok(MappedBytes {
                    repr: Repr::Mapped(mapping),
                });
            }
        }
        let _ = len;
        let mut buf = Vec::new();
        {
            use std::io::Read;
            let mut file = file;
            file.read_to_end(&mut buf)?;
        }
        Ok(MappedBytes {
            repr: Repr::Owned(buf),
        })
    }

    /// Wraps an owned buffer — the in-memory seam the property tests use
    /// to drive the columnar reader without touching the filesystem.
    pub fn from_vec(bytes: Vec<u8>) -> MappedBytes {
        MappedBytes {
            repr: Repr::Owned(bytes),
        }
    }

    /// The full buffer.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped(m) => m.bytes(),
            Repr::Owned(v) => v,
        }
    }

    /// Advises the OS that `[start, end)` has been consumed and its pages
    /// may be reclaimed. Best-effort and a no-op for owned buffers.
    pub fn advise_dont_need(&self, start: usize, end: usize) {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mapped(m) => m.dont_need(start, end),
            Repr::Owned(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_real_file_contents() {
        let dir = std::env::temp_dir().join(format!("twig-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MappedBytes::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        // Dropping consumed pages must not change later reads (pages are
        // re-faulted from the file).
        map.advise_dont_need(0, 100_000);
        assert_eq!(map.bytes(), &payload[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_file_and_owned_buffers() {
        let dir = std::env::temp_dir().join(format!("twig-mapped-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let map = MappedBytes::open(&path).unwrap();
        assert!(map.bytes().is_empty());
        let owned = MappedBytes::from_vec(vec![1, 2, 3]);
        assert_eq!(owned.bytes(), &[1, 2, 3]);
        owned.advise_dont_need(0, 3);
        assert_eq!(owned.bytes(), &[1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
