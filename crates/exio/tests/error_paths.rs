//! Error-path coverage for the pipelining substrate: a producer failing
//! mid-stream must never leave consumers (or other producers) blocked, and
//! device wrappers must propagate inner errors without corrupting their
//! accounting.

use oociso_exio::{BlockDevice, BoundedQueue, FaultPlan, FaultyDevice, MemDevice, ThrottledDevice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The pipeline shape: one retrieval thread reading records off a device and
/// pushing them into the bounded queue, a pool of consumers popping. When
/// the device errors mid-stream the producer's only correct move is to close
/// the queue on its way out — this test pins that down: every consumer
/// observes end-of-stream (`None`), none hangs, and the items pushed before
/// the fault all arrive.
#[test]
fn producer_error_midstream_unblocks_consumers() {
    let device = FaultyDevice::new(
        MemDevice::new((0..=255u8).cycle().take(1 << 12).collect()),
        FaultPlan {
            fail_reads: Some(5..6), // the 6th read fails
            ..FaultPlan::default()
        },
    );
    let queue: BoundedQueue<Vec<u8>> = BoundedQueue::weighted(2);
    let consumed = AtomicU64::new(0);
    let producer_result = std::thread::scope(|scope| {
        let mut consumers = Vec::new();
        for _ in 0..3 {
            consumers.push(scope.spawn(|| {
                while let Some(item) = queue.pop() {
                    consumed.fetch_add(item.len() as u64, Ordering::Relaxed);
                    // slow consumers: the producer hits its fault while the
                    // queue is contended, not after everything drained
                    std::thread::sleep(Duration::from_millis(2));
                }
            }));
        }
        let result = (|| -> std::io::Result<()> {
            for i in 0..64u64 {
                let mut buf = vec![0u8; 32];
                device.read_at(i * 32, &mut buf)?;
                if queue.push(buf, 32, 1).is_err() {
                    break;
                }
            }
            Ok(())
        })();
        // the close is what keeps the failure from wedging the pipeline
        queue.close();
        for c in consumers {
            c.join().expect("consumer panicked");
        }
        result
    });
    let err = producer_result.expect_err("read #5 was scheduled to fail");
    assert!(err.to_string().contains("injected fault"), "{err}");
    assert_eq!(device.injected_errors(), 1);
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        5 * 32,
        "exactly the records read before the fault were consumed"
    );
    assert_eq!(queue.stats().pushed_items, 5);
}

/// The symmetric case: consumers all give up (close from the consumer side)
/// while a producer is blocked on a full queue. The blocked push must return
/// the item instead of wedging.
#[test]
fn consumer_side_close_unblocks_full_producer() {
    let queue: BoundedQueue<u32> = BoundedQueue::weighted(1);
    queue.push(0, 4, 1).unwrap();
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| queue.push(1, 4, 1));
        // let the producer actually block on the full queue first
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(
            blocked.join().unwrap(),
            Err(1),
            "the push hands the item back"
        );
    });
    assert!(
        queue.waits().push_wait > Duration::ZERO,
        "the producer did block"
    );
}

/// A device error through the throttle wrapper: the error propagates verbatim
/// and the wrapper keeps working afterwards — a failed read does not poison
/// the throttle or its accounting.
#[test]
fn throttled_device_propagates_inner_errors_and_survives() {
    let device = ThrottledDevice::new(
        FaultyDevice::new(
            MemDevice::new((0..64u8).collect()),
            FaultPlan::fail_first(1),
        ),
        Duration::ZERO,
        1e9,
    );
    let mut buf = [0u8; 8];
    let err = device.read_at(0, &mut buf).expect_err("first read fails");
    assert!(err.to_string().contains("injected fault"), "{err}");
    device.read_at(8, &mut buf).expect("the device heals");
    assert_eq!(buf, [8, 9, 10, 11, 12, 13, 14, 15]);
    // only the successful read reached the inner MemDevice's accounting
    assert_eq!(device.stats().snapshot().read_calls, 1);
}

/// An out-of-range read errors through the throttle without sleeping for
/// bytes that will never transfer.
#[test]
fn throttled_device_rejects_out_of_range_reads() {
    let device = ThrottledDevice::new(MemDevice::new(vec![0u8; 100]), Duration::ZERO, 1e9);
    let mut buf = [0u8; 16];
    assert!(device.read_at(96, &mut buf).is_err(), "read past end fails");
    assert_eq!(device.len(), 100, "length reporting unaffected");
    device
        .read_at(84, &mut buf)
        .expect("in-range read still works");
}
