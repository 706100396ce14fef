//! The host stamp printed with every result, and peak memory.

pub struct HostStamp {
    pub cores: usize,
    pub cpu: String,
    pub profile: &'static str,
    pub rustc: &'static str,
    /// Executor width every simulation runs at (= host cores).
    pub exec_width: usize,
}

impl HostStamp {
    pub fn capture() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cores,
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            exec_width: cores,
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: available_parallelism={} cpu=\"{}\" profile={} rustc=\"{}\" exec_width={}",
            self.cores, self.cpu, self.profile, self.rustc, self.exec_width
        )
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used, all threads included (ended ones
/// too): `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable value laid out as the C
    // `struct timespec` of 64-bit Linux (two 64-bit fields; enforced by
    // the `compile_error!` below), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock of 64-bit Linux");
