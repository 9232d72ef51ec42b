//! The replication link's read path against a hostile replica: half a
//! reply frame followed by a hang-up, and a length prefix far above
//! [`MAX_FRAME`] with the connection held open. [`TcpLink::call`] must
//! return an error promptly, without panicking and without allocating
//! the advertised length.

use hwm_cluster::{NodeLink, RepFrame, TcpLink};
use hwm_service::wire::MAX_FRAME;
use std::time::{Duration, Instant};

#[path = "../../service/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../service/tests/support/hostile.rs"]
mod hostile;

use hostile::Reply;

#[test]
fn link_refuses_hostile_replies() {
    for reply in [Reply::HalfFrame, Reply::OversizedPrefix] {
        let (addr, peer) = hostile::spawn(reply);
        let mut link = TcpLink::connect(addr).expect("connect");
        let t0 = Instant::now();
        let result = link.call(&RepFrame::Checkpoint {
            shard: 0,
            trace: None,
        });
        let elapsed = t0.elapsed();
        drop(link);
        peer.join().expect("peer thread");
        assert!(result.is_err(), "{reply:?}: the link accepted {result:?}");
        assert!(
            elapsed < Duration::from_secs(2),
            "{reply:?}: the link took {elapsed:?} to give up"
        );
        assert!(
            counting_alloc::largest_allocation() < MAX_FRAME,
            "{reply:?}: an allocation of {} bytes",
            counting_alloc::largest_allocation()
        );
    }
}
