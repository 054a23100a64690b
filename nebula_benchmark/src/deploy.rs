//! The served workload's deployment — a real coordinator on a Unix
//! socket with in-process worker threads — and the scratch directory the
//! benchmark keeps its socket, journal, snapshots and trace under.

use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use nebula_core::Transport;
use nebula_modular::ModularConfig;
use nebula_serve::worker::{run_worker, WorkerConfig};
use nebula_serve::{Coordinator, Endpoint, ServeConfig, WorkerRunConfig};

use crate::workloads::AUTH_KEY;

/// Where the benchmark may write: `nebula_benchmark/` under the build's
/// target directory (`target/` without `CARGO_TARGET_DIR`), relative to
/// the working directory when it lies inside it — Unix socket paths are
/// limited to ~100 bytes, and a checkout's absolute path may not fit.
pub fn output_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let base = match std::env::current_dir() {
        Ok(cwd) => base.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(base),
        Err(_) => base,
    };
    base.join("nebula_benchmark")
}

/// A per-process scratch directory, removed on drop.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let dir = output_dir().join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A live coordinator plus its worker threads.
pub struct Deployment {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<()>>,
}

impl Deployment {
    /// Binds a coordinator at `dir/c.sock` and starts `workers` threads of
    /// `executors` executor threads each, all holding the master key.
    pub fn start(dir: &Path, modular: ModularConfig, workers: usize, executors: usize) -> Deployment {
        let socket = dir.join("c.sock");
        let mut cfg = ServeConfig::new(WorkerRunConfig {
            modular: Some(modular),
            delta_threshold: 0.0,
            payload_auth: true,
        });
        cfg.auth_key = Some(AUTH_KEY);
        cfg.uds = Some(socket.clone());
        let coordinator = Coordinator::bind(cfg).expect("bind the coordinator's Unix socket");
        let handles = (0..workers)
            .map(|i| {
                let mut wc = WorkerConfig::new(Endpoint::Uds(socket.clone()));
                wc.auth_key = Some(AUTH_KEY);
                wc.name = format!("bench-w{i}");
                wc.threads = executors;
                thread::spawn(move || {
                    run_worker(wc).expect("worker runs to an orderly shutdown");
                })
            })
            .collect();
        assert!(
            coordinator.wait_for_workers(workers, Duration::from_secs(30)),
            "workers must register within 30 s"
        );
        Deployment { coordinator, workers: handles }
    }

    /// A new handle on the deployment's round barrier.
    pub fn transport(&self) -> Box<dyn Transport> {
        Box::new(self.coordinator.transport())
    }

    /// Orderly shutdown; returns once every worker thread has ended.
    pub fn stop(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.join().expect("worker thread panicked");
        }
    }
}
