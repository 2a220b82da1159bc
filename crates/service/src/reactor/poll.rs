//! Readiness polling for the event-driven runtime: a thin `epoll` shim
//! over raw Linux syscalls (no `libc` crate) with a portable
//! level-triggered fallback for everything else.
//!
//! The shim is deliberately tiny: register/modify/deregister file
//! descriptors with a `u64` token and an interest mask, then [`Poller::wait`]
//! for readiness events. Everything is **level-triggered** — an event
//! only says "a read/write would probably not block *right now*", and
//! callers must tolerate spurious readiness (retry on `WouldBlock`).
//! That contract is what makes the fallback implementable at all: on
//! platforms without epoll it simply reports every registered descriptor
//! as ready after a short nap, which is semantically a (slow but correct)
//! level-triggered poller.
//!
//! `EINTR` from the kernel is retried inside [`Poller::wait`]; callers
//! never see it.

use std::io;
use std::io::{Read, Write};
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Interest in readability (accept/read would make progress).
pub const INTEREST_READ: u32 = 0b01;
/// Interest in writability (a buffered write could be flushed).
pub const INTEREST_WRITE: u32 = 0b10;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// A read would make progress (also set on hangup so the reader
    /// discovers EOF).
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
    /// The kernel flagged an error or hangup condition on the fd.
    pub error: bool,
}

/// Errno values the shim cares about, extracted from a raw syscall
/// return (`-4095..=-1` encodes `-errno`).
pub(crate) fn errno_of(ret: isize) -> Option<i32> {
    if (-4095..=-1).contains(&ret) {
        Some(-(ret as i32))
    } else {
        None
    }
}

/// `EINTR`: the call was interrupted by a signal and should be retried.
pub(crate) const EINTR: i32 = 4;

/// True when a raw syscall return means "retry the call".
pub(crate) fn should_retry(ret: isize) -> bool {
    errno_of(ret) == Some(EINTR)
}

fn errno_to_io(ret: isize) -> io::Error {
    match errno_of(ret) {
        Some(e) => io::Error::from_raw_os_error(e),
        None => io::Error::other(format!("unexpected syscall return {ret}")),
    }
}

// ---------------------------------------------------------------------------
// Raw epoll syscalls (Linux x86_64 / aarch64 only, no libc)
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    /// Syscall numbers differ per architecture; aarch64 has no
    /// `epoll_wait`, only `epoll_pwait` (extra sigmask args, NULL here).
    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const CLOSE: usize = 3;
        pub const EPOLL_WAIT: usize = 232;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_CREATE1: usize = 291;
        pub const PRLIMIT64: usize = 302;
        pub const EPOLL_WAIT_IS_PWAIT: bool = false;
    }
    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const CLOSE: usize = 57;
        pub const EPOLL_WAIT: usize = 22; // epoll_pwait
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_CREATE1: usize = 20;
        pub const PRLIMIT64: usize = 261;
        pub const EPOLL_WAIT_IS_PWAIT: bool = true;
    }

    /// Six-argument syscall; unused trailing arguments are zero.
    ///
    /// SAFETY: the caller must pass argument values that are valid for
    /// syscall `n` per the Linux ABI (live pointers with correct
    /// lifetimes, fds it owns). The asm itself only clobbers the
    /// registers the kernel documents for the syscall entry.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: callers uphold the per-syscall ABI contract stated in the
    // doc comment above (valid pointers, owned fds).
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: inline `syscall`, x86_64 Linux convention (args in
        // rdi/rsi/rdx/r10/r8/r9, number in rax, kernel clobbers rcx/r11);
        // nothing beyond the argument pointers is touched.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret
    }

    /// Six-argument syscall; unused trailing arguments are zero.
    ///
    /// SAFETY: same contract as the x86_64 variant — arguments must be
    /// valid for syscall `n` per the Linux aarch64 ABI.
    #[cfg(target_arch = "aarch64")]
    // SAFETY: callers uphold the per-syscall ABI contract stated in the
    // doc comment above (valid pointers, owned fds).
    pub unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: inline `svc 0` with the aarch64 Linux calling
        // convention (args in x0..x5, number in x8, result in x0).
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack)
            );
        }
        ret
    }
}

/// The kernel's `struct epoll_event`. Packed on x86_64 (the kernel ABI
/// there uses no padding between the 32-bit mask and 64-bit data);
/// naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;

fn interest_to_mask(interest: u32) -> u32 {
    let mut mask = 0;
    if interest & INTEREST_READ != 0 {
        mask |= EPOLLIN;
    }
    if interest & INTEREST_WRITE != 0 {
        mask |= EPOLLOUT;
    }
    mask
}

/// The epoll-backed poller (Linux x86_64/aarch64 only).
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<RawEpollEvent>,
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl EpollPoller {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags word and no pointers.
        let ret = unsafe { sys::syscall6(sys::nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        if ret < 0 {
            return Err(errno_to_io(ret));
        }
        Ok(Self {
            epfd: ret as RawFd,
            buf: vec![RawEpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let ev = RawEpollEvent { events: interest_to_mask(interest), data: token };
        let ev_ptr = if op == EPOLL_CTL_DEL { 0 } else { &ev as *const RawEpollEvent as usize };
        // SAFETY: `ev` lives across the call; DEL passes a null event
        // pointer, which Linux >= 2.6.9 permits.
        let ret = unsafe {
            sys::syscall6(sys::nr::EPOLL_CTL, self.epfd as usize, op, fd as usize, ev_ptr, 0, 0)
        };
        if ret < 0 {
            return Err(errno_to_io(ret));
        }
        Ok(())
    }

    /// Starts watching `fd` with `token` and `interest`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest mask (and token) of a watched fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout` for events, appending them to `out`.
    /// Retries `EINTR` internally.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<usize> {
        let timeout_ms = timeout.as_millis().min(i32::MAX as u128) as usize;
        let n = loop {
            let (sigmask, sigsetsize) = if sys::nr::EPOLL_WAIT_IS_PWAIT { (0, 8) } else { (0, 0) };
            // SAFETY: `self.buf` is a live, owned allocation of
            // `buf.len()` `RawEpollEvent` slots; the kernel writes at
            // most that many entries. The sigmask pointer is NULL.
            let ret = unsafe {
                sys::syscall6(
                    sys::nr::EPOLL_WAIT,
                    self.epfd as usize,
                    self.buf.as_mut_ptr() as usize,
                    self.buf.len(),
                    timeout_ms,
                    sigmask,
                    sigsetsize,
                )
            };
            if should_retry(ret) {
                continue;
            }
            if ret < 0 {
                return Err(errno_to_io(ret));
            }
            break ret as usize;
        };
        for e in self.buf.iter().take(n) {
            let bits = e.events;
            let error = bits & (EPOLLERR | EPOLLHUP) != 0;
            out.push(PollEvent {
                token: e.data,
                readable: bits & EPOLLIN != 0 || error,
                writable: bits & EPOLLOUT != 0,
                error,
            });
        }
        Ok(n)
    }
}

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: epfd is an fd this struct exclusively owns.
        let _ = unsafe { sys::syscall6(sys::nr::CLOSE, self.epfd as usize, 0, 0, 0, 0, 0) };
    }
}

/// The portable fallback: remembers registrations and, after a short
/// nap, reports every registered descriptor ready per its interest —
/// a correct (if slow) level-triggered poller, because all callers
/// already tolerate spurious readiness and retry on `WouldBlock`.
pub struct FallbackPoller {
    registered: Vec<(RawFd, u64, u32)>,
}

impl FallbackPoller {
    /// Creates an empty fallback poller.
    pub fn new() -> Self {
        Self { registered: Vec::new() }
    }

    /// Starts watching `fd` with `token` and `interest`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        if self.registered.iter().any(|&(f, _, _)| f == fd) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd already registered"));
        }
        self.registered.push((fd, token, interest));
        Ok(())
    }

    /// Changes the interest mask (and token) of a watched fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        match self.registered.iter_mut().find(|(f, _, _)| *f == fd) {
            Some(slot) => {
                *slot = (fd, token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.registered.len();
        self.registered.retain(|&(f, _, _)| f != fd);
        if self.registered.len() == before {
            return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
        }
        Ok(())
    }

    /// Naps briefly, then reports every registered fd as ready.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<usize> {
        // lint:allow(reactor) reason=the fallback poller's nap IS its readiness wait; bounded at 2ms
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for &(_, token, interest) in &self.registered {
            out.push(PollEvent {
                token,
                readable: interest & INTEREST_READ != 0,
                writable: interest & INTEREST_WRITE != 0,
                error: false,
            });
        }
        Ok(self.registered.len())
    }
}

impl Default for FallbackPoller {
    fn default() -> Self {
        Self::new()
    }
}

/// The poller the reactor actually uses: epoll where available, the
/// level-triggered fallback elsewhere.
pub enum Poller {
    /// Kernel epoll (Linux x86_64/aarch64).
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    Epoll(EpollPoller),
    /// Portable sleep-and-report-all fallback.
    Fallback(FallbackPoller),
}

impl Poller {
    /// Picks the best available implementation.
    pub fn new() -> Self {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            if let Ok(ep) = EpollPoller::new() {
                return Poller::Epoll(ep);
            }
        }
        Poller::Fallback(FallbackPoller::new())
    }

    /// Starts watching `fd` with `token` and `interest`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Poller::Epoll(p) => p.register(fd, token, interest),
            Poller::Fallback(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest mask (and token) of a watched fd.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Poller::Epoll(p) => p.modify(fd, token, interest),
            Poller::Fallback(p) => p.modify(fd, token, interest),
        }
    }

    /// Stops watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Poller::Epoll(p) => p.deregister(fd),
            Poller::Fallback(p) => p.deregister(fd),
        }
    }

    /// Waits up to `timeout`, appending readiness events to `out`.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<usize> {
        match self {
            #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
            Poller::Epoll(p) => p.wait(out, timeout),
            Poller::Fallback(p) => p.wait(out, timeout),
        }
    }
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Waker: cross-thread wakeup for a blocked `Poller::wait`
// ---------------------------------------------------------------------------

/// Wakes a reactor blocked in [`Poller::wait`] from another thread by
/// writing one byte into a nonblocking socketpair whose read end the
/// reactor registered. A full pipe means a wakeup is already pending,
/// so `WouldBlock` on the write is success, not failure.
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Nudges the reactor. Never blocks.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Builds the waker and the nonblocking read end the reactor should
/// register with [`INTEREST_READ`] and drain via [`drain_wakes`].
pub fn waker_pair() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Empties the waker pipe so a level-triggered poller stops reporting it.
pub fn drain_wakes(rx: &mut UnixStream) {
    let mut buf = [0u8; 64];
    while let Ok(n) = rx.read(&mut buf) {
        if n == 0 {
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// nofile rlimit (the 10k-session runs need headroom for 10k+ sockets)
// ---------------------------------------------------------------------------

/// Raises the soft `RLIMIT_NOFILE` to the hard limit via `prlimit64`,
/// returning `(soft, hard)` after the raise. Best-effort on platforms
/// without the raw-syscall shim.
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        const RLIMIT_NOFILE: usize = 7;
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        let mut old = RLimit { cur: 0, max: 0 };
        // SAFETY: pid 0 = self; the new-limit pointer is NULL (pure
        // read) and `old` lives across the call.
        let ret = unsafe {
            sys::syscall6(
                sys::nr::PRLIMIT64,
                0,
                RLIMIT_NOFILE,
                0,
                &mut old as *mut RLimit as usize,
                0,
                0,
            )
        };
        if ret < 0 {
            return Err(errno_to_io(ret));
        }
        if old.cur < old.max {
            let new = RLimit { cur: old.max, max: old.max };
            // SAFETY: pid 0 = self; `new` lives across the call and the
            // old-limit pointer is NULL.
            let ret = unsafe {
                sys::syscall6(
                    sys::nr::PRLIMIT64,
                    0,
                    RLIMIT_NOFILE,
                    &new as *const RLimit as usize,
                    0,
                    0,
                    0,
                )
            };
            if ret < 0 {
                return Err(errno_to_io(ret));
            }
            return Ok((new.cur, new.max));
        }
        Ok((old.cur, old.max))
    }
    #[cfg(not(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        Err(io::Error::new(io::ErrorKind::Unsupported, "no raw-syscall shim on this platform"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    /// True when backed by kernel epoll: only then are the exact edges
    /// checkable (the fallback may over-report).
    fn is_epoll(poller: &Poller) -> bool {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            return matches!(poller, Poller::Epoll(_));
        }
        #[allow(unreachable_code)]
        false
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn errno_classification_and_eintr_retry_predicate() {
        assert_eq!(errno_of(-4), Some(4));
        assert_eq!(errno_of(-1), Some(1));
        assert_eq!(errno_of(0), None);
        assert_eq!(errno_of(7), None);
        assert_eq!(errno_of(-5000), None, "large negatives are not errnos");
        assert!(should_retry(-(EINTR as isize)));
        assert!(!should_retry(-11), "EAGAIN must not retry blindly");
        assert!(!should_retry(3));
    }

    #[test]
    fn readiness_edges_no_data_then_data_then_eof() {
        let mut poller = Poller::new();
        assert!(is_epoll(&poller) || cfg!(not(target_os = "linux")));
        let (mut a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, INTEREST_READ).unwrap();

        // Edge 1: nothing written yet -> zero-timeout wait reports nothing
        // (epoll path; the fallback may over-report, which is allowed).
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(0)).unwrap();
        if is_epoll(&poller) {
            assert!(events.iter().all(|e| e.token != 7 || !e.readable));
        }

        // Edge 2: data arrives -> readable with the registered token.
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let mut seen = false;
        for _ in 0..100 {
            events.clear();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                seen = true;
                break;
            }
        }
        assert!(seen, "data never reported readable: {events:?}");

        // Edge 3: peer hangs up -> still reported readable (so the
        // reader can observe EOF), with the error/hup flag on epoll.
        drop(a);
        let mut seen_eof = false;
        for _ in 0..100 {
            events.clear();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                seen_eof = true;
                break;
            }
        }
        assert!(seen_eof, "hangup never reported");
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_modify_and_deregister() {
        let mut poller = Poller::new();
        let (a, _b) = tcp_pair();
        a.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 3, INTEREST_READ).unwrap();
        poller.modify(a.as_raw_fd(), 3, INTEREST_READ | INTEREST_WRITE).unwrap();

        // An idle socket with an empty send buffer is writable.
        let mut events = Vec::new();
        let mut writable = false;
        for _ in 0..100 {
            events.clear();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 3 && e.writable) {
                writable = true;
                break;
            }
        }
        assert!(writable, "idle socket never reported writable");

        poller.deregister(a.as_raw_fd()).unwrap();
        if is_epoll(&poller) {
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(0)).unwrap();
            assert!(events.iter().all(|e| e.token != 3), "deregistered fd still firing");
        }
    }

    #[test]
    fn waker_unblocks_a_waiting_poller() {
        let mut poller = Poller::new();
        let (waker, mut rx) = waker_pair().unwrap();
        poller.register(rx.as_raw_fd(), 99, INTEREST_READ).unwrap();
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let mut events = Vec::new();
        let mut woke = false;
        for _ in 0..100 {
            events.clear();
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 99 && e.readable) {
                woke = true;
                break;
            }
        }
        assert!(woke, "waker byte never surfaced");
        drain_wakes(&mut rx);
        if is_epoll(&poller) {
            // Drained: a zero-timeout wait goes quiet again.
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(0)).unwrap();
            assert!(events.iter().all(|e| e.token != 99 || !e.readable));
        }
    }

    #[test]
    fn fallback_reports_registered_interests_and_tracks_membership() {
        let mut p = FallbackPoller::new();
        let (a, b) = tcp_pair();
        p.register(a.as_raw_fd(), 1, INTEREST_READ).unwrap();
        p.register(b.as_raw_fd(), 2, INTEREST_READ | INTEREST_WRITE).unwrap();
        assert!(p.register(a.as_raw_fd(), 9, INTEREST_READ).is_err(), "double register");
        let mut events = Vec::new();
        p.wait(&mut events, Duration::from_millis(1)).unwrap();
        let one = events.iter().find(|e| e.token == 1).unwrap();
        assert!(one.readable && !one.writable);
        let two = events.iter().find(|e| e.token == 2).unwrap();
        assert!(two.readable && two.writable);

        p.modify(a.as_raw_fd(), 1, INTEREST_WRITE).unwrap();
        events.clear();
        p.wait(&mut events, Duration::from_millis(1)).unwrap();
        let one = events.iter().find(|e| e.token == 1).unwrap();
        assert!(!one.readable && one.writable);

        p.deregister(a.as_raw_fd()).unwrap();
        assert!(p.deregister(a.as_raw_fd()).is_err(), "double deregister");
        events.clear();
        p.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.iter().all(|e| e.token != 1));
    }

    #[test]
    fn nofile_raise_is_idempotent_soft_equals_hard() {
        match raise_nofile_limit() {
            Ok((soft, hard)) => {
                assert_eq!(soft, hard, "raise must pin soft to hard");
                let (soft2, hard2) = raise_nofile_limit().unwrap();
                assert_eq!((soft2, hard2), (soft, hard));
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::Unsupported),
        }
    }
}
