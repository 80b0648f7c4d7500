//! A delegating [`Partitioner`] that times each call from outside.
//!
//! Handed to `ShardSimulator::new` and `LiveRunner::new` in the traced
//! pass, it attributes the partition time inside `simulate` and `live`
//! without instrumenting the program: each call records its wall time
//! and the vertex count of the graph it was given, and returns the inner
//! partitioner's result untouched.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use blockpart_partition::{Partition, PartitionRequest, Partitioner};

/// One partition call.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Wall time of the call in seconds.
    pub secs: f64,
    /// Vertices of the graph the call partitioned.
    pub vertices: usize,
}

/// The calls made through every [`Timed`] sharing this log.
pub type CallLog = Rc<RefCell<Vec<Call>>>;

/// The timing wrapper.
pub struct Timed {
    inner: Box<dyn Partitioner>,
    log: CallLog,
}

impl Timed {
    /// Wraps `inner`, appending its calls to `log`.
    pub fn wrap(inner: Box<dyn Partitioner>, log: &CallLog) -> Box<dyn Partitioner> {
        Box::new(Timed {
            inner,
            log: Rc::clone(log),
        })
    }
}

impl Partitioner for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let start = Instant::now();
        let out = self.inner.partition(req);
        self.log.borrow_mut().push(Call {
            secs: start.elapsed().as_secs_f64(),
            vertices: req.csr.node_count(),
        });
        out
    }
}
