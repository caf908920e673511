//! Rank-per-process launching for the TCP transport.
//!
//! [`Launcher`] spawns `world` copies of a program (by default the current
//! executable) with the environment the TCP backend's rendezvous needs —
//! `HEAR_RANK`, `HEAR_WORLD`, and a per-launch `HEAR_RENDEZVOUS_FILE` —
//! then supervises the tree: the first child failing (or a watchdog
//! expiring) kills every survivor, and the per-rank exit codes are
//! reported in [`Outcome`]. Each launch gets its own rendezvous file and
//! only ephemeral ports, so any number of launchers can run concurrently
//! on one host without coordination.
//!
//! Child side: [`child_rank`] says whether this process *is* a launched
//! rank, and [`child_comm`] performs the full TCP rendezvous and hands
//! back a ready [`Communicator`] — the one-constructor switch that lets
//! any existing test or bench run multi-process:
//!
//! ```no_run
//! use hear_mpi::launch;
//! if let Some(comm) = launch::child_comm() {
//!     let comm = comm.expect("TCP rendezvous");
//!     let sums = comm.allreduce(&[comm.rank() as u64 + 1], |a, b| a + b);
//!     assert_eq!(sums[0], (1..=comm.world() as u64).sum());
//! }
//! ```

use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::comm::Communicator;
use crate::tcp::TcpTransport;

static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Builder for a rank-per-process tree.
pub struct Launcher {
    world: usize,
    watchdog: Duration,
    program: Option<PathBuf>,
    args: Vec<String>,
    envs: Vec<(String, String)>,
    shrink_tolerant: bool,
    quiet: bool,
}

impl Launcher {
    /// A launcher for `world` single-rank processes of the current
    /// executable, with a 60 s watchdog.
    pub fn new(world: usize) -> Launcher {
        Launcher {
            world,
            watchdog: Duration::from_secs(60),
            program: None,
            args: Vec::new(),
            envs: Vec::new(),
            shrink_tolerant: false,
            quiet: false,
        }
    }

    /// Tolerate individual rank deaths instead of fail-fast-killing the
    /// tree: with shrink-and-continue enabled in the children, a dead
    /// rank is a survivable event the survivors reconfigure around, so
    /// the supervisor keeps the tree running and reports the per-rank
    /// exits at the end. The watchdog still bounds a wedged tree.
    pub fn allow_shrink(mut self) -> Launcher {
        self.shrink_tolerant = true;
        self
    }

    /// Wall-clock ceiling on the whole tree; on expiry every child is
    /// killed and [`Outcome::watchdog_fired`] is set. A hang therefore
    /// becomes a *distinct, detectable* failure, never a stuck CI job.
    pub fn watchdog(mut self, limit: Duration) -> Launcher {
        self.watchdog = limit;
        self
    }

    /// Launch `program` instead of the current executable.
    pub fn program(mut self, program: impl Into<PathBuf>) -> Launcher {
        self.program = Some(program.into());
        self
    }

    /// Append command-line arguments for every child.
    pub fn args<I: IntoIterator<Item = S>, S: Into<String>>(mut self, args: I) -> Launcher {
        self.args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Set an extra environment variable for every child.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Launcher {
        self.envs.push((key.into(), value.into()));
        self
    }

    /// Discard every child's stdout; stderr stays inherited, so panics
    /// still reach the console. For children that are themselves test
    /// binaries: their per-test result lines would otherwise interleave
    /// with the parent harness's own.
    pub fn quiet(mut self) -> Launcher {
        self.quiet = true;
        self
    }

    /// Spawn the tree. Children start rendezvous immediately; supervise
    /// with [`Tree::wait`] (or poke individual ranks first, e.g.
    /// [`Tree::kill_rank`] for fault drills).
    pub fn spawn(self) -> std::io::Result<Tree> {
        let program = match self.program {
            Some(p) => p,
            None => std::env::current_exe()?,
        };
        let rendezvous_file = std::env::temp_dir().join(format!(
            "hear-rendezvous-{}-{}.port",
            std::process::id(),
            LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        // A stale file from a recycled pid would poison rendezvous.
        let _ = std::fs::remove_file(&rendezvous_file);
        let mut children = Vec::with_capacity(self.world);
        for rank in 0..self.world {
            let mut cmd = Command::new(&program);
            cmd.args(&self.args)
                .env("HEAR_RANK", rank.to_string())
                .env("HEAR_WORLD", self.world.to_string())
                .env("HEAR_RENDEZVOUS_FILE", &rendezvous_file)
                .stdin(Stdio::null());
            if self.quiet {
                cmd.stdout(Stdio::null());
            }
            for (k, v) in &self.envs {
                cmd.env(k, v);
            }
            match cmd.spawn() {
                Ok(child) => children.push(Some(child)),
                Err(e) => {
                    // Abort the partial tree before reporting.
                    let mut tree = Tree {
                        children,
                        statuses: Vec::new(),
                        expected_dead: Vec::new(),
                        rendezvous_file: rendezvous_file.clone(),
                        deadline: Instant::now(),
                        shrink_tolerant: self.shrink_tolerant,
                    };
                    tree.statuses = vec![None; tree.children.len()];
                    tree.expected_dead = vec![false; tree.children.len()];
                    tree.kill_all();
                    return Err(e);
                }
            }
        }
        let statuses = vec![None; children.len()];
        let expected_dead = vec![false; children.len()];
        Ok(Tree {
            children,
            statuses,
            expected_dead,
            rendezvous_file,
            deadline: Instant::now() + self.watchdog,
            shrink_tolerant: self.shrink_tolerant,
        })
    }
}

/// How a launched tree ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Per-rank exit code; `None` means killed by a signal (including a
    /// supervisor kill after a sibling failed or the watchdog fired).
    pub codes: Vec<Option<i32>>,
    /// The watchdog expired before every child exited.
    pub watchdog_fired: bool,
}

impl Outcome {
    /// Every rank exited 0 and the watchdog stayed quiet.
    pub fn success(&self) -> bool {
        !self.watchdog_fired && self.codes.iter().all(|c| *c == Some(0))
    }
}

/// A running rank tree; see [`Launcher::spawn`].
pub struct Tree {
    children: Vec<Option<Child>>,
    statuses: Vec<Option<ExitStatus>>,
    /// Ranks killed deliberately through [`Tree::kill_rank`]: their
    /// (signal) deaths are the drill, not a failure, so they do not
    /// trigger the fail-fast teardown of the survivors.
    expected_dead: Vec<bool>,
    rendezvous_file: PathBuf,
    deadline: Instant,
    /// [`Launcher::allow_shrink`]: rank deaths do not fail-fast the tree.
    shrink_tolerant: bool,
}

impl Tree {
    pub fn world(&self) -> usize {
        self.children.len()
    }

    /// Forcibly kill one rank (fault drills: the surviving ranks must
    /// observe `PeerDead` through the transport). The killed rank's death
    /// is expected — [`Tree::wait`] keeps supervising the survivors
    /// instead of fail-fast-killing the tree, so a drill can watch them
    /// react. Idempotent; no-op for a rank that already exited.
    pub fn kill_rank(&mut self, rank: usize) {
        if let Some(flag) = self.expected_dead.get_mut(rank) {
            *flag = true;
        }
        if let Some(child) = self.children.get_mut(rank).and_then(Option::as_mut) {
            let _ = child.kill();
        }
    }

    fn kill_all(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
        }
        // Reap so nothing is left as a zombie.
        for (i, slot) in self.children.iter_mut().enumerate() {
            if let Some(mut child) = slot.take() {
                if let Ok(status) = child.wait() {
                    if i < self.statuses.len() {
                        self.statuses[i].get_or_insert(status);
                    }
                }
            }
        }
    }

    /// Supervise until every rank exits, a rank fails, or the watchdog
    /// fires. On the first non-zero exit (or watchdog expiry) the rest of
    /// the tree is killed. Exit codes are reported per rank.
    pub fn wait(mut self) -> Outcome {
        let mut watchdog_fired = false;
        loop {
            let mut all_done = true;
            let mut failure = false;
            for rank in 0..self.children.len() {
                if self.statuses[rank].is_some() {
                    continue;
                }
                let Some(child) = self.children[rank].as_mut() else {
                    continue;
                };
                match child.try_wait() {
                    Ok(Some(status)) => {
                        self.statuses[rank] = Some(status);
                        self.children[rank] = None;
                        if !status.success() && !self.expected_dead[rank] && !self.shrink_tolerant {
                            failure = true;
                        }
                    }
                    Ok(None) => all_done = false,
                    Err(_) => {
                        // Treat an unwaitable child as failed.
                        self.children[rank] = None;
                        failure = true;
                    }
                }
            }
            if failure {
                self.kill_all();
                break;
            }
            if all_done {
                break;
            }
            if Instant::now() >= self.deadline {
                watchdog_fired = true;
                self.kill_all();
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let codes = self
            .statuses
            .iter()
            .map(|s| s.and_then(|st| st.code()))
            .collect();
        let _ = std::fs::remove_file(&self.rendezvous_file);
        Outcome {
            codes,
            watchdog_fired,
        }
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        self.kill_all();
        let _ = std::fs::remove_file(&self.rendezvous_file);
    }
}

/// This process's rank, when it was spawned by a [`Launcher`].
pub fn child_rank() -> Option<usize> {
    std::env::var("HEAR_RANK").ok()?.parse().ok()
}

/// This process's world size, when it was spawned by a [`Launcher`].
pub fn child_world() -> Option<usize> {
    std::env::var("HEAR_WORLD").ok()?.parse().ok()
}

/// Perform the TCP rendezvous this environment describes and return the
/// world [`Communicator`] for this process's rank. `None` when the
/// process was not spawned by a [`Launcher`] (no `HEAR_RANK` etc.), so a
/// binary can branch between parent and child roles with one call.
pub fn child_comm() -> Option<std::io::Result<Communicator>> {
    match TcpTransport::connect_from_env()? {
        Ok((transport, rank, world)) => {
            Some(Ok(Communicator::new(rank, world, Arc::new(transport))))
        }
        Err(e) => Some(Err(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(world: usize, script: &str) -> Launcher {
        Launcher::new(world).program("/bin/sh").args(["-c", script])
    }

    #[test]
    fn all_zero_exits_is_success() {
        let outcome = sh(3, "exit 0").spawn().unwrap().wait();
        assert!(outcome.success(), "{outcome:?}");
        assert_eq!(outcome.codes, vec![Some(0); 3]);
    }

    #[test]
    fn nonzero_exit_fails_the_tree_and_kills_survivors() {
        // Rank with HEAR_RANK=1 exits 7 immediately; the others would
        // sleep far past the watchdog if they were not killed.
        let t0 = Instant::now();
        let outcome = sh(3, r#"if [ "$HEAR_RANK" = 1 ]; then exit 7; fi; sleep 30"#)
            .watchdog(Duration::from_secs(20))
            .spawn()
            .unwrap()
            .wait();
        assert!(!outcome.success());
        assert!(!outcome.watchdog_fired);
        assert_eq!(outcome.codes[1], Some(7));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "survivors were killed, not awaited"
        );
    }

    #[test]
    fn watchdog_kills_a_hung_tree() {
        let t0 = Instant::now();
        let outcome = sh(2, "sleep 30")
            .watchdog(Duration::from_millis(300))
            .spawn()
            .unwrap()
            .wait();
        assert!(outcome.watchdog_fired);
        assert!(!outcome.success());
        assert!(t0.elapsed() < Duration::from_secs(10));
        // Killed by signal → no exit code.
        assert_eq!(outcome.codes, vec![None, None]);
    }

    #[test]
    fn kill_rank_is_a_targeted_fault() {
        // The drilled rank dies by signal; the survivor keeps running to
        // its own (clean) exit — a drill must be able to watch survivors
        // react instead of having the supervisor tear them down.
        let mut tree = sh(2, "sleep 0.4; exit 0")
            .watchdog(Duration::from_secs(20))
            .spawn()
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        tree.kill_rank(0);
        let t0 = Instant::now();
        let outcome = tree.wait();
        assert!(!outcome.success(), "a signal death is still not a success");
        assert!(!outcome.watchdog_fired);
        assert_eq!(outcome.codes[0], None, "rank 0 died by signal");
        assert_eq!(outcome.codes[1], Some(0), "survivor ran to completion");
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn allow_shrink_keeps_survivors_running_past_a_rank_death() {
        // Inverse of `nonzero_exit_fails_the_tree_and_kills_survivors`:
        // with shrink tolerance the dead rank's non-zero exit is recorded
        // but the survivors run to their own completion.
        let outcome = sh(
            3,
            r#"if [ "$HEAR_RANK" = 1 ]; then exit 7; fi; sleep 0.3; exit 0"#,
        )
        .watchdog(Duration::from_secs(20))
        .allow_shrink()
        .spawn()
        .unwrap()
        .wait();
        assert!(!outcome.watchdog_fired);
        assert_eq!(outcome.codes[1], Some(7));
        assert_eq!(outcome.codes[0], Some(0), "survivor was not torn down");
        assert_eq!(outcome.codes[2], Some(0), "survivor was not torn down");
        assert!(!outcome.success(), "a rank death still is not a success");
    }

    #[test]
    fn concurrent_launchers_do_not_collide() {
        // Ephemeral-port + per-launch rendezvous-file hygiene: two trees
        // side by side share nothing nameable, so both must succeed.
        let a = sh(2, "exit 0").spawn().unwrap();
        let b = sh(2, "exit 0").spawn().unwrap();
        assert!(a.wait().success());
        assert!(b.wait().success());
    }
}
