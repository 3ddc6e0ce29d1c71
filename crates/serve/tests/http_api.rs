//! HTTP front-end round trip over an ephemeral port: submit, status,
//! results, cancel, and the structured `422` rejection paths (including
//! the verify gate surfacing a non-applicable cell's reason in the error
//! body, and a body nested too deep to parse).

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swapcodes_core::Scheme;
use swapcodes_serve::{http, Service, ServiceConfig};
use swapcodes_workloads::all;

fn start_api(
    workers: usize,
) -> (
    Arc<Service>,
    String,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().expect("addr").to_string();
    let service = Arc::new(Service::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            http::serve(&service, &listener, &stop).expect("serve loop");
        })
    };
    (service, addr, stop, handle)
}

#[test]
fn http_round_trip_submit_status_results_cancel() {
    let (service, addr, stop, handle) = start_api(2);

    let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    // Structured rejections: garbage, then an unknown workload.
    let (status, body) = http::request(&addr, "POST", "/jobs", Some("not json")).expect("post");
    assert_eq!(status, 422);
    assert!(body.contains("\"error\":\"bad_json\""), "{body}");
    let (status, body) = http::request(
        &addr,
        "POST",
        "/jobs",
        Some(r#"{"workloads":["no-such-workload"],"schemes":["swap-ecc"]}"#),
    )
    .expect("post");
    assert_eq!(status, 422);
    assert!(body.contains("\"error\":\"unknown_workload\""), "{body}");

    // A clean submission is accepted and runs to completion.
    let (status, body) = http::request(
        &addr,
        "POST",
        "/jobs",
        Some(
            r#"{"name":"api","workloads":["kmeans"],"schemes":["swap-ecc"],
                "trials":8,"seed":1,"shard_trials":4}"#,
        ),
    )
    .expect("post");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"job\":0}");
    assert!(service.wait(0, Duration::from_secs(300)), "job finishes");

    let (status, body) = http::request(&addr, "GET", "/jobs/0", None).expect("status");
    assert_eq!(status, 200);
    assert!(body.contains("\"state\":\"completed\""), "{body}");
    let (status, body) = http::request(&addr, "GET", "/jobs/0/results", None).expect("results");
    assert_eq!(status, 200);
    assert!(body.contains("\"coverage\""), "{body}");
    assert!(body.contains("\"wilson_lo\""), "{body}");
    let (status, body) = http::request(&addr, "GET", "/jobs", None).expect("list");
    assert_eq!(status, 200);
    assert!(body.contains("\"job\":0"), "{body}");

    // Cancel is idempotent on a settled job; unknown routes/ids are 404.
    let (status, _) = http::request(&addr, "POST", "/jobs/0/cancel", None).expect("cancel");
    assert_eq!(status, 200);
    let (status, _) = http::request(&addr, "GET", "/jobs/42", None).expect("missing");
    assert_eq!(status, 404);
    let (status, _) = http::request(&addr, "GET", "/nope", None).expect("bad route");
    assert_eq!(status, 404);
    let (status, _) = http::request(&addr, "PUT", "/jobs", None).expect("bad method");
    assert_eq!(status, 405);

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("serve thread");
    service.shutdown();
}

/// If any built-in (workload, scheme) cell is inapplicable (e.g.
/// inter-thread duplication over a kernel that already uses its lanes),
/// submitting it must answer `422` with the transform error in the body —
/// the verify gate talking to the tenant instead of a worker panicking.
#[test]
fn http_rejects_inapplicable_cell_with_structured_body() {
    let scheme = Scheme::InterThread { checked: true };
    let inapplicable = all()
        .into_iter()
        .find(|w| swapcodes_core::apply(scheme, &w.kernel, w.launch).is_err())
        .map(|w| (w.name.to_owned(), scheme));
    let Some((workload, scheme)) = inapplicable else {
        // Every cell applies: nothing to reject, nothing to test.
        return;
    };

    let (service, addr, stop, handle) = start_api(1);
    let spec = format!(
        r#"{{"workloads":["{workload}"],"schemes":["{}"],"trials":4}}"#,
        scheme.label()
    );
    let (status, body) = http::request(&addr, "POST", "/jobs", Some(&spec)).expect("post");
    assert_eq!(status, 422, "{body}");
    assert!(
        body.contains("\"error\":\"scheme_not_applicable\""),
        "{body}"
    );
    assert!(
        body.contains(&format!("\"workload\":\"{workload}\"")),
        "{body}"
    );
    assert!(body.contains("\"detail\":"), "{body}");

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("serve thread");
    service.shutdown();
}

/// A body nested far past any spec's depth must answer `422` — not
/// overflow the stack of the thread that serves every request.
#[test]
fn http_rejects_deeply_nested_body_and_keeps_serving() {
    let (service, addr, stop, handle) = start_api(1);
    let nested = "[".repeat(1 << 20);
    let (status, body) = http::request(&addr, "POST", "/jobs", Some(&nested)).expect("post");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("\"error\":\"bad_json\""), "{body}");
    let (status, body) = http::request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("serve thread");
    service.shutdown();
}
