//! Whole-file byte sources: a raw `mmap(2)` on Linux/x86-64, or an
//! aligned owned buffer everywhere else (and when `EM_CHECKPOINT_NO_MMAP`
//! is set, so tests can exercise both paths on one host).

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// How a [`Mapping`] got its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadMode {
    /// The file is memory-mapped; pages fault in on demand.
    Mmap,
    /// The file was read into an owned, 8-byte-aligned buffer.
    Read,
}

impl LoadMode {
    pub(crate) fn name(self) -> &'static str {
        match self {
            LoadMode::Mmap => "mmap",
            LoadMode::Read => "read",
        }
    }
}

/// An immutable view of an entire checkpoint file.
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
    mode: LoadMode,
    /// Backing buffer for [`LoadMode::Read`]; `u64` elements keep the
    /// base 8-byte aligned, which together with the format's 64-byte
    /// relative tensor offsets satisfies every element type we store.
    owned: Option<Vec<u64>>,
}

// SAFETY: the mapping is PROT_READ (or an owned buffer that is never
// mutated after construction), so concurrent shared access is sound.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`: `&Mapping` only ever reads the bytes, which
// nothing writes while the mapping lives, so sharing it is sound.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Map (or read) the whole file at `path`.
    pub(crate) fn open(path: &Path) -> std::io::Result<Mapping> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "checkpoint file larger than address space",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(Mapping {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                mode: LoadMode::Read,
                owned: None,
            });
        }
        if std::env::var_os("EM_CHECKPOINT_NO_MMAP").is_none_or(|v| v != "1") {
            if let Some(m) = sys::try_mmap(&file, len) {
                return Ok(m);
            }
        }
        Mapping::read_fallback(file, len)
    }

    fn read_fallback(mut file: File, len: usize) -> std::io::Result<Mapping> {
        let words = len.div_ceil(8);
        let mut owned = vec![0u64; words];
        // SAFETY: the Vec's allocation covers `words * 8 >= len` bytes,
        // and u64 -> u8 reinterpretation is always valid.
        let bytes = unsafe { std::slice::from_raw_parts_mut(owned.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(bytes)?;
        Ok(Mapping {
            ptr: owned.as_ptr().cast(),
            len,
            mode: LoadMode::Read,
            owned: Some(owned),
        })
    }

    pub(crate) fn ptr(&self) -> *const u8 {
        self.ptr
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn mode(&self) -> LoadMode {
        self.mode
    }

    /// The whole file as bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe a live mapping or owned buffer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.mode == LoadMode::Mmap {
            sys::unmap(self.ptr, self.len);
        }
        // Owned buffers free themselves when `owned` drops.
        let _ = &self.owned;
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::{LoadMode, Mapping};
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// Raw `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)` without
    /// libc: the workspace vendors no FFI crates, and the two syscalls
    /// needed here are stable ABI on x86-64 Linux.
    pub(super) fn try_mmap(file: &File, len: usize) -> Option<Mapping> {
        let fd = file.as_raw_fd();
        let ret: isize;
        // SAFETY: well-formed mmap syscall; arguments follow the x86-64
        // Linux calling convention (number in rax, args in rdi, rsi,
        // rdx, r10, r8, r9; rcx/r11 clobbered).
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP as isize => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") PROT_READ,
                in("r10") MAP_PRIVATE,
                in("r8") fd as isize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // Errors return -errno in [-4095, -1].
        if (-4095..0).contains(&ret) {
            return None;
        }
        Some(Mapping {
            ptr: ret as usize as *const u8,
            len,
            mode: LoadMode::Mmap,
            owned: None,
        })
    }

    pub(super) fn unmap(ptr: *const u8, len: usize) {
        if len == 0 {
            return;
        }
        let ret: isize;
        // SAFETY: ptr/len came from a successful mmap above and are
        // unmapped exactly once (Mapping's Drop).
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP as isize => ret,
                in("rdi") ptr as usize,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        debug_assert_eq!(ret, 0, "munmap failed");
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use super::Mapping;
    use std::fs::File;

    pub(super) fn try_mmap(_file: &File, _len: usize) -> Option<Mapping> {
        None
    }

    pub(super) fn unmap(_ptr: *const u8, _len: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("em-ckpt-mmap-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = scratch("basic");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(b"hello checkpoint")
            .unwrap();
        let m = Mapping::open(&path).unwrap();
        assert_eq!(m.bytes(), b"hello checkpoint");
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(m.mode(), LoadMode::Mmap);
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_fallback_matches() {
        let path = scratch("fallback");
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&data)
            .unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let m = Mapping::read_fallback(file, data.len()).unwrap();
        assert_eq!(m.mode(), LoadMode::Read);
        assert_eq!(m.bytes(), &data[..]);
        assert_eq!(m.ptr() as usize % 8, 0, "fallback buffer must be 8-aligned");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_ok() {
        let path = scratch("empty");
        std::fs::File::create(&path).unwrap();
        let m = Mapping::open(&path).unwrap();
        assert_eq!(m.len(), 0);
        assert!(m.bytes().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
