//! Failure containment: every operation runs under a time cap, and a
//! panic or an overrun becomes a counted failure with its cause instead
//! of ending the run.

use std::fs::File;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send>;

/// One reusable thread for capped operations. Operations run one at a
/// time on the same thread, so none pays for a fresh thread's start-up
/// or cold allocator; a panic is caught and the thread carries on. An
/// operation that overruns its cap is abandoned with its thread, and
/// the next operation gets a new one.
pub struct Worker {
    live: Option<(mpsc::Sender<Job>, JoinHandle<()>)>,
}

impl Worker {
    pub fn new() -> Worker {
        Worker { live: None }
    }

    /// Runs `f`, giving up after `cap`. Returns the value and the time
    /// `f` itself took.
    pub fn run<T: Send + 'static>(
        &mut self,
        cap: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> Result<(T, Duration), String> {
        let (tx, rx) = mpsc::channel();
        let job: Job = Box::new(move || {
            let start = Instant::now();
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(out.map(|v| (v, start.elapsed())));
        });
        let (jobs, _) = self.live.get_or_insert_with(|| {
            let (jobs, queue) = mpsc::channel::<Job>();
            (
                jobs,
                std::thread::spawn(move || queue.into_iter().for_each(|job| job())),
            )
        });
        if jobs.send(job).is_err() {
            self.live = None;
            return Err("worker thread vanished".into());
        }
        match rx.recv_timeout(cap) {
            Ok(Ok(done)) => Ok(done),
            Ok(Err(payload)) => Err(format!("panic: {}", panic_message(&*payload))),
            Err(e) => {
                // Abandon the stuck thread; the process ends without it.
                self.live = None;
                Err(match e {
                    mpsc::RecvTimeoutError::Timeout => format!("timed out after {cap:?}"),
                    mpsc::RecvTimeoutError::Disconnected => "worker thread vanished".into(),
                })
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if let Some((jobs, thread)) = self.live.take() {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The outcome of one child process run to completion.
pub struct ChildRun {
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall: Duration,
}

/// Runs `cmd` with stdout and stderr sent to `log` (both streams),
/// waiting at most `cap`; an overrunning child is killed and reaped.
pub fn run_child(cmd: &mut Command, cap: Duration, log: &Path) -> Result<ChildRun, String> {
    let out = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("clone {}: {e}", log.display()))?;
    let start = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let status = wait_capped(child, cap)?;
    Ok(ChildRun {
        status,
        wall: start.elapsed(),
    })
}

/// Waits for `child` at most `cap`, killing and reaping it on overrun.
pub fn wait_capped(mut child: Child, cap: Duration) -> Result<ExitStatus, String> {
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(child.wait());
    });
    let result = match rx.recv_timeout(cap) {
        Ok(status) => status.map_err(|e| format!("wait: {e}")),
        Err(_) => {
            // The waiter owns the child; signal it by pid, then let the
            // waiter reap it.
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            let _ = rx.recv();
            Err(format!("timed out after {cap:?}; killed"))
        }
    };
    waiter
        .join()
        .map_err(|_| "waiter thread panicked".to_string())?;
    result
}
