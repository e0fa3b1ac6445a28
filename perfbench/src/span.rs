//! In-memory span recording for the traced run.
//!
//! Every timed call goes through [`Tracer::timed`] (or [`Tracer::span`],
//! its wall-time-only form), which always returns the call's wall time
//! and the CPU time the whole process spent in it (the metric runs need
//! them) and, when tracing is on, also keeps a span: name, start, end,
//! parent span and run id. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end, so the only cost
//! tracing adds to a timed region is one `Vec` push.
//!
//! The end-to-end host metrics use the CPU time. On a few shared cores
//! the wall time of a run with many rank threads mostly measures how
//! long the scheduler keeps them waiting (and how much the hypervisor
//! steals), which changes from minute to minute; the CPU time the
//! process burns does not include those waits.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use crate::metrics::{json_num, json_str};

/// One recorded span; times are seconds since the tracer was created.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Time a call took, in seconds.
#[derive(Clone, Copy)]
pub struct Took {
    /// Wall-clock time.
    pub wall: f64,
    /// CPU time of the whole process (every thread, ended ones included).
    pub cpu: f64,
}

/// CPU time this process has used so far, summed over all its threads
/// (ended ones included), in seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Span recorder (or a bare stopwatch when tracing is off).
pub struct Tracer {
    run: String,
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that only times calls.
    pub fn off() -> Self {
        Self::new(String::new(), false)
    }

    /// A tracer that records every span under run id `run`.
    pub fn on(run: String) -> Self {
        Self::new(run, true)
    }

    fn new(run: String, enabled: bool) -> Self {
        Tracer {
            run,
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f`, returning its result and its wall time in seconds; when
    /// tracing is on, record it as a child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, took) = self.timed(name, f);
        (out, took.wall)
    }

    /// [`Tracer::span`], returning both the wall time and the process CPU
    /// time of the call.
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Took) {
        let slot = self.enabled.then(|| {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                id,
                parent,
                name,
                start: 0.0,
                end: 0.0,
            });
            self.open.borrow_mut().push(id);
            id
        });
        let (start, cpu_start) = (Instant::now(), process_cpu_s());
        let out = f();
        let (end, cpu_end) = (Instant::now(), process_cpu_s());
        if let Some(id) = slot {
            self.open.borrow_mut().pop();
            let mut spans = self.spans.borrow_mut();
            spans[id].start = (start - self.epoch).as_secs_f64();
            spans[id].end = (end - self.epoch).as_secs_f64();
        }
        let took = Took {
            wall: (end - start).as_secs_f64(),
            cpu: cpu_end - cpu_start,
        };
        (out, took)
    }

    /// Recorded spans, in the order they were opened.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Write the spans as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\": {}, \"id\": {}, \"parent\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}\n",
                json_str(&self.run),
                s.id,
                parent,
                json_str(s.name),
                json_num(s.start),
                json_num(s.end)
            ));
        }
        std::fs::write(path, out)
    }
}

/// Pins this process, and every thread it starts afterwards, to the last
/// CPU it may run on, and returns that CPU. On one CPU the engine's rank
/// threads take turns instead of racing each other across cores, so the
/// CPU time a run burns no longer depends on how busy the other cores are.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
