//! Integration tests for the pluggable storage backends: NM-CIJ over the
//! real-file `PageBackend` must be observably indistinguishable from the
//! heap-backed run (same pairs in the same
//! order, same NM counters, same page-access totals — across worker-thread
//! counts and execution modes), a pinned page's payload must stay resident
//! under cache pressure while the buffer alone decides membership, and the
//! `PagePayload` node codec must round-trip losslessly while rejecting
//! frames that exceed the page size.

use cij::pagestore::{PageId, PagePayload, PageRef, PageStore, PageStoreConfig};
use cij::prelude::*;
use cij::rtree::{
    CellObject, Node, PointObject, RTree, RTreeConfig, RTreeObject, NODE_HEADER_BYTES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small pages so even modest datasets produce multi-level trees.
fn test_config() -> CijConfig {
    CijConfig::default().with_rtree(RTreeConfig {
        page_size: 512,
        max_entries: 64,
    })
}

fn clustered(n: usize, seed: u64) -> Vec<Point> {
    clustered_points(
        &ClusterSpec {
            n,
            clusters: 5,
            sigma_fraction: 0.03,
            background_fraction: 0.15,
            size_skew: 0.8,
        },
        &Rect::DOMAIN,
        seed,
    )
}

fn run_nm(p: &[Point], q: &[Point], config: &CijConfig) -> CijOutcome {
    QueryEngine::new(*config).join(p, q, Algorithm::NmCij)
}

/// Runs metered NM-CIJ on `w` as a stream and checks the bytes it moved:
/// every transfer is one whole frame, and the metered bytes are exactly
/// the misses of the leaf-order walk the stream's construction performs —
/// the join's only counted reads. Workers read through pinned snapshots
/// (unmetered) and the coordinator's replay admits those pins, moving no
/// byte. Returns the join's counted misses and its outcome.
fn run_nm_checking_transfers(
    config: &CijConfig,
    w: &mut Workload,
    label: &str,
) -> (u64, CijOutcome) {
    let frame = config.rtree.page_size as u64;
    let (stats, io_before) = (w.stats.clone(), w.backend_io());
    let before = stats.snapshot();
    let stream = QueryEngine::new(*config).stream(w, Algorithm::NmCij);
    let walk_misses = stats.snapshot().since(&before).physical_reads;
    let outcome = stream.try_into_outcome().expect("a clean run");
    let io = w.backend_io().since(&io_before);
    assert_eq!(
        (io.bytes_read % frame, io.unmetered_bytes_read % frame),
        (0, 0),
        "{label}: a transfer moved a partial frame"
    );
    assert_eq!(
        io.bytes_read,
        walk_misses * frame,
        "{label}: metered bytes other than the leaf-order walk's misses"
    );
    (stats.snapshot().since(&before).physical_reads, outcome)
}

/// The acceptance contract, as a full matrix: for uniform and clustered
/// workloads, NM-CIJ over every backend {heap, file} × threads
/// {1, 4} × execution mode {metered, fast} produces identical pairs (set
/// *and* order) and NM counters as the metered single-threaded heap
/// baseline; metered cells additionally reproduce its page-access totals
/// and progress samples exactly.
#[test]
fn backend_matrix_matches_the_metered_heap_baseline_exactly() {
    let workloads = [
        (
            "uniform",
            uniform_points(600, &Rect::DOMAIN, 9401),
            uniform_points(600, &Rect::DOMAIN, 9402),
        ),
        ("clustered", clustered(500, 9403), clustered(550, 9404)),
    ];
    for (name, p, q) in &workloads {
        let baseline = run_nm(p, q, &test_config().with_worker_threads(1));
        assert!(!baseline.pairs.is_empty());
        for backend in StorageBackend::ALL {
            for threads in [1usize, 4] {
                for mode in [ExecMode::Metered, ExecMode::Fast] {
                    let config = test_config()
                        .with_storage_backend(backend)
                        .with_worker_threads(threads)
                        .with_exec_mode(mode);
                    let run = run_nm(p, q, &config);
                    let label = format!("{name}, {backend}, T={threads}, {mode:?}");
                    assert_eq!(
                        run.pairs, baseline.pairs,
                        "{label}: pair sequence (set or order) diverged"
                    );
                    assert_eq!(
                        run.profile.work, baseline.profile.work,
                        "{label}: NM counters diverged"
                    );
                    if mode == ExecMode::Metered {
                        assert_eq!(
                            run.page_accesses(),
                            baseline.page_accesses(),
                            "{label}: page-access totals diverged"
                        );
                        assert_eq!(
                            run.progress, baseline.progress,
                            "{label}: progress samples diverged"
                        );
                    }
                }
            }
        }
    }
}

/// All three algorithms (including the Voronoi-tree-materialising FM/PM)
/// agree with the brute-force oracle when every tree lives on each backend.
#[test]
fn every_algorithm_is_correct_over_every_backend() {
    let p = uniform_points(150, &Rect::DOMAIN, 9405);
    let q = clustered(150, 9406);
    let oracle = brute_force_cij(&p, &q, &Rect::DOMAIN);
    for backend in StorageBackend::ALL {
        let engine = QueryEngine::new(test_config().with_storage_backend(backend));
        for alg in Algorithm::ALL {
            let outcome = engine.join(&p, &q, alg);
            assert_eq!(
                outcome.sorted_pairs(),
                oracle,
                "{backend}: {} diverged",
                alg.name()
            );
        }
    }
}

/// Every transfer of a metered NM-CIJ moves one whole frame on every
/// backend, and its metered bytes are exactly the counted misses of the
/// leaf-order walk — on a cold buffer and on the warm one a second run over
/// the same workload finds; the warm run misses less, and both phases
/// return the heap backend's pairs for the heap backend's misses. (The
/// counted read paths' `bytes_read == physical_reads × page_size` is
/// `by_reference_queries_account_exactly_like_the_owned_walk`'s.)
#[test]
fn file_bytes_read_match_counted_physical_reads() {
    let p = uniform_points(400, &Rect::DOMAIN, 9407);
    let q = uniform_points(400, &Rect::DOMAIN, 9408);
    let mut reference = None;
    for backend in StorageBackend::ALL {
        let config = test_config().with_storage_backend(backend);
        let mut w = QueryEngine::new(config).build_workload(&p, &q);
        let mut phases = Vec::new();
        for phase in ["cold", "warm"] {
            let label = format!("{backend}, {phase}");
            let (misses, outcome) = run_nm_checking_transfers(&config, &mut w, &label);
            assert!(!outcome.pairs.is_empty());
            phases.push((misses, outcome.pairs));
        }
        let (cold, warm) = (phases[0].0, phases[1].0);
        assert!(
            warm < cold,
            "{backend}: the warm run missed {warm} pages, the cold run {cold}"
        );
        let heap = reference.get_or_insert_with(|| phases.clone());
        assert!(phases == *heap, "{backend}: diverged from the heap backend");
    }
}

/// NM-CIJ over trees built out of core (external merge sort, a dozen runs)
/// and joined through buffers an eighth of each tree, sequentially and on
/// four workers: on every backend the pairs are the heap backend's, every
/// transfer is a whole frame and the metered bytes are the leaf-order
/// walk's misses, and no tree ever holds more decoded pages than its buffer
/// plus its pins — there is no mirror for the dataset to hide in.
#[test]
fn out_of_core_join_stays_within_buffer_plus_pins() {
    let p = uniform_points(1_200, &Rect::DOMAIN, 9413);
    let q = clustered(1_200, 9414);
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for backend in StorageBackend::ALL {
        for threads in [1, 4] {
            let config = test_config()
                .with_storage_backend(backend)
                .with_worker_threads(threads);
            let stats = IoStats::new();
            let build = |points: &[Point]| {
                let objects = PointObject::from_points(points);
                let mut tree = RTree::bulk_load_external_on(
                    config.rtree,
                    stats.clone(),
                    objects,
                    1.0,
                    backend,
                    100,
                );
                tree.set_buffer_pages(tree.num_pages() / 8);
                tree.drop_buffer();
                tree.reset_residency_peaks();
                tree
            };
            let (rp, rq) = (build(&p), build(&q));
            let mut w = Workload { rp, rq, stats };
            let label = format!("{backend}, T={threads}");
            let (_, outcome) = run_nm_checking_transfers(&config, &mut w, &label);
            for (name, tree) in [("RP", &w.rp), ("RQ", &w.rq)] {
                let (buffer, pinned) = (tree.buffer_pages(), tree.peak_pinned_pages());
                assert!(buffer > 0 && 4 * buffer <= tree.num_pages());
                assert!(
                    tree.peak_resident_pages() <= buffer + pinned,
                    "{backend}, T={threads}, {name}: peak resident {} pages exceeds \
                     buffer {buffer} + pinned {pinned}",
                    tree.peak_resident_pages()
                );
            }
            let base = reference.get_or_insert_with(|| outcome.pairs.clone());
            assert_eq!(
                &outcome.pairs, base,
                "{backend}, T={threads}: pairs diverged"
            );
        }
    }
}

/// `RTree::range_query` with every node read **owned** (`try_read_node`, which
/// clones a buffered node) — the read path queries used before they visited
/// nodes by reference, kept here as the accounting oracle.
fn owned_range_query(tree: &mut RTree<PointObject>, query: &Rect) -> Vec<PointObject> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.try_read_node(page).unwrap();
        out.extend(node.objects.iter().filter(|o| o.mbr().intersects(query)));
        let hits = node.children.iter().filter(|c| c.mbr.intersects(query));
        stack.extend(hits.map(|c| c.page));
    }
    out
}

enum Browse {
    Node(PageId),
    Object(PointObject),
}

/// `RTree::nearest_iter` cut at `k`, over owned node reads — see
/// [`owned_range_query`]: entries queued in storage order and popped under
/// the walk's order (squared key, then first met) by a linear scan, with no
/// bound on what is queued.
fn owned_k_nearest(
    tree: &mut RTree<PointObject>,
    query: Point,
    k: usize,
) -> Vec<(f64, PointObject)> {
    let mut queue = vec![(0.0f64, 0usize, Browse::Node(tree.root_page()))];
    let mut met = 1;
    let mut out = Vec::new();
    while out.len() < k && !queue.is_empty() {
        let first = (0..queue.len())
            .min_by(|&a, &b| {
                let (a, b) = (&queue[a], &queue[b]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            })
            .unwrap();
        match queue.swap_remove(first) {
            (key, _, Browse::Object(o)) => out.push((key.sqrt(), o)),
            (_, _, Browse::Node(page)) => {
                let node = tree.try_read_node(page).unwrap();
                let objects = node.objects.into_iter().map(|o| {
                    let key = o.mbr().mindist_point_sq(&query);
                    (key, Browse::Object(o))
                });
                let children = node.children.into_iter().map(|c| {
                    let key = c.mbr.mindist_point_sq(&query);
                    (key, Browse::Node(c.page))
                });
                for (key, entry) in objects.chain(children) {
                    queue.push((key, met, entry));
                    met += 1;
                }
            }
        }
    }
    out
}

/// Visiting nodes by reference changes nothing observable: over every
/// backend and a buffer of none, an eighth and all of the tree, a cold scan,
/// 200 windows and 200 probes, each at k = 8, 1, one more than a leaf holds
/// and three leaves' worth, return the owned walk's object sequences and
/// leave its `IoStats`, its backend byte counts and its buffer order — on
/// uniform data and on a lattice where neighbours tie on distance, so the
/// k-NN answer depends on the order among equal keys. `k_nearest` bounds
/// what it queues once its first leaf is read (at the wide k that leaf
/// holds fewer than k objects); the owned walk and `nearest_iter().take(k)`
/// bound nothing.
#[test]
fn by_reference_queries_account_exactly_like_the_owned_walk() {
    const SIDE: usize = 48;
    // Points a leaf of `test_config()` holds: 488 bytes of a 512-byte page
    // over 24-byte entries.
    const LEAF: usize = 20;
    let step = 10_000.0 / SIDE as f64;
    let lattice: Vec<Point> = (0..SIDE * SIDE)
        .map(|i| Point::new((i / SIDE) as f64 * step, (i % SIDE) as f64 * step))
        .collect();
    let uniform = uniform_points(2_500, &Rect::DOMAIN, 9411);
    let rtree = test_config().rtree;
    let mut full = RTree::bulk_load(rtree, PointObject::from_points(&uniform));
    let first_leaf = full.leaf_pages_hilbert_order(&Rect::DOMAIN)[0];
    assert_eq!(full.try_read_node(first_leaf).unwrap().objects.len(), LEAF);
    for (name, points) in [("uniform", &uniform), ("lattice", &lattice)] {
        for storage in StorageBackend::ALL {
            for buffer_fraction in [0.0, 0.125, 1.0] {
                let build = || {
                    let mut tree = RTree::bulk_load_with_stats_on(
                        rtree,
                        IoStats::new(),
                        PointObject::from_points(points),
                        1.0,
                        storage,
                    );
                    tree.set_buffer_fraction(buffer_fraction);
                    tree.flush();
                    tree.stats().reset();
                    tree
                };
                let (mut by_ref, mut owned) = (build(), build());
                let io_before = (by_ref.backend_io(), owned.backend_io());
                let case = format!("{name}, {storage:?}, buffer {buffer_fraction}");

                let everything = Rect::from_coords(
                    f64::NEG_INFINITY,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                );
                let scanned = by_ref.scan_all();
                assert_eq!(scanned.len(), points.len(), "{case}");
                assert_eq!(
                    scanned,
                    owned_range_query(&mut owned, &everything),
                    "{case}"
                );

                let mut rng = StdRng::seed_from_u64(9412);
                for _ in 0..200 {
                    // Lattice-aligned corners and probes (cell corners and
                    // centres): on the lattice data both tie constantly.
                    let mut snap = || rng.gen_range(0..2 * SIDE) as f64 * step / 2.0;
                    let lo = Point::new(snap(), snap());
                    let window = Rect::from_coords(lo.x, lo.y, lo.x + 3.0 * step, lo.y + step);
                    let hits = by_ref.range_query(&window);
                    assert_eq!(hits, owned_range_query(&mut owned, &window), "{case}");

                    let probe = Point::new(snap(), snap());
                    for k in [8, 1, LEAF + 1, 3 * LEAF] {
                        let got = by_ref.k_nearest(probe, k);
                        let expected = owned_k_nearest(&mut owned, probe, k);
                        assert_eq!(got.len(), k, "{case}");
                        for ((gd, go), (ed, eo)) in got.iter().zip(&expected) {
                            assert_eq!(
                                (gd.to_bits(), go),
                                (ed.to_bits(), eo),
                                "{case}, {probe:?}, k {k}"
                            );
                        }
                        assert_eq!(
                            by_ref.stats().snapshot(),
                            owned.stats().snapshot(),
                            "{case}, {probe:?}, k {k}"
                        );
                        // The law: the unbounded browse cut at k answers and
                        // accounts alike (the owned tree keeps in step).
                        let cut: Vec<_> = by_ref.nearest_iter(probe).take(k).collect();
                        assert_eq!(got, cut, "{case}, {probe:?}, k {k}");
                        owned_k_nearest(&mut owned, probe, k);
                    }
                }

                let snap = by_ref.stats().snapshot();
                assert_eq!(snap, owned.stats().snapshot(), "{case}");
                let io = by_ref.backend_io().since(&io_before.0);
                assert_eq!(io, owned.backend_io().since(&io_before.1), "{case}");
                assert_eq!(
                    io.bytes_read,
                    snap.physical_reads * rtree.page_size as u64,
                    "{case}"
                );
                assert_eq!(
                    by_ref.buffered_pages_mru_to_lru(),
                    owned.buffered_pages_mru_to_lru(),
                    "{case}"
                );
            }
        }
    }
}

fn arbitrary_point_node(seed: u64, entries: usize, inner: bool) -> Node<PointObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    if inner {
        let mut node: Node<PointObject> = Node::new_inner(1 + (seed % 5) as u32);
        for _ in 0..entries {
            let x = rng.gen_range(-1e6..1e6);
            let y = rng.gen_range(-1e6..1e6);
            node.children.push(cij::rtree::ChildEntry {
                mbr: Rect::from_coords(
                    x,
                    y,
                    x + rng.gen_range(0.0..1e3),
                    y + rng.gen_range(0.0..1e3),
                ),
                page: cij::pagestore::PageId(rng.gen_range(0..u32::MAX)),
            });
        }
        node
    } else {
        let mut node = Node::new_leaf();
        for _ in 0..entries {
            node.objects.push(PointObject::new(
                rng.gen_range(0..u64::MAX),
                Point::new(rng.gen_range(-1e9..1e9), rng.gen_range(-1e9..1e9)),
            ));
        }
        node
    }
}

fn arbitrary_cell_node(seed: u64, entries: usize) -> Node<CellObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut node = Node::new_leaf();
    for i in 0..entries as u64 {
        let cx = rng.gen_range(100.0..9_900.0);
        let cy = rng.gen_range(100.0..9_900.0);
        let site = Point::new(cx, cy);
        let mut cell = ConvexPolygon::from_rect(&Rect::from_coords(
            cx - 60.0,
            cy - 60.0,
            cx + 60.0,
            cy + 60.0,
        ));
        for _ in 0..rng.gen_range(0..8) {
            let other = Point::new(
                cx + rng.gen_range(-90.0..90.0),
                cy + rng.gen_range(-90.0..90.0),
            );
            if other.dist(&site) > 1.0 {
                cell = cell.clip_bisector(&site, &other);
            }
        }
        node.objects.push(CellObject::new(i, site, cell));
    }
    node
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `PagePayload` encode/decode is lossless for arbitrary R-tree nodes:
    /// point leaves, inner nodes and variable-size Voronoi-cell leaves all
    /// round-trip observably unchanged, and the size estimate is exact.
    #[test]
    fn node_codec_roundtrip_is_lossless(
        seed in 0u64..10_000,
        entries in 0usize..40,
        inner in 0u8..2,
    ) {
        let point_node = arbitrary_point_node(seed, entries, inner == 1);
        let bytes = point_node.encode();
        prop_assert_eq!(bytes.len(), point_node.encoded_len());
        prop_assert_eq!(&Node::<PointObject>::decode(&bytes), &point_node);

        let cell_node = arbitrary_cell_node(seed, entries.min(12));
        let bytes = cell_node.encode();
        prop_assert_eq!(bytes.len(), cell_node.encoded_len());
        prop_assert_eq!(&Node::<CellObject>::decode(&bytes), &cell_node);
    }

    /// Overflow detection: a node whose encoding exceeds the page size is
    /// rejected by the frame check; anything the R-tree's fanout budget
    /// admits fits with its header.
    #[test]
    fn frames_exceeding_page_size_are_rejected(
        seed in 0u64..10_000,
        entries in 0usize..60,
    ) {
        let node = arbitrary_point_node(seed, entries, false);
        let page_size = 512usize;
        let fits_budget =
            node.payload_bytes() <= page_size - NODE_HEADER_BYTES;
        prop_assert_eq!(
            node.check_frame(page_size).is_ok(),
            fits_budget,
            "frame check must agree with the header-aware fanout budget"
        );
        if let Err(overflow) = node.check_frame(page_size) {
            prop_assert_eq!(overflow.needed, node.encoded_len());
            prop_assert_eq!(overflow.frame, page_size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A pin keeps a page's payload resident; membership is the buffer's
    /// alone. Over arbitrary interleavings of counted reads (which evict),
    /// peeks, replays of live guards and guard drops against a small store:
    /// every live guard still reads its payload, the resident pages are
    /// exactly the buffer members and the pinned pages after every step,
    /// and peak residency stays within the buffer plus the peak pin count.
    #[test]
    fn resident_pages_are_the_buffer_members_and_the_pinned_under_pressure(
        capacity in 1usize..6,
        ops in proptest::collection::vec((0u32..20, 0u8..5), 1..300),
    ) {
        let payload = |page: u32| page * 7 + 3;
        let mut store: PageStore<u32> = PageStore::new(PageStoreConfig::default());
        let ids: Vec<PageId> = (0..20).map(|page| store.allocate(payload(page))).collect();
        store.flush();
        store.set_buffer_pages(capacity);
        store.reset_residency_peaks();
        let mut guards: Vec<PageRef<u32>> = Vec::new();
        for (step, (page, op)) in ops.into_iter().enumerate() {
            let id = ids[page as usize];
            match op {
                // Counted reads: the only operation that evicts.
                0 | 1 => prop_assert_eq!(store.try_read(id).unwrap(), payload(page)),
                2 => guards.push(store.try_peek(id).unwrap()),
                3 if !guards.is_empty() => {
                    store.note_read(&guards[page as usize % guards.len()]);
                }
                _ if !guards.is_empty() => {
                    guards.swap_remove(page as usize % guards.len());
                }
                _ => {}
            }
            for guard in &guards {
                prop_assert_eq!(**guard, payload(guard.id().0), "step {}", step);
            }
            let members = store.buffered_pages_mru_to_lru();
            prop_assert!(members.len() <= capacity);
            let pinned: std::collections::BTreeSet<PageId> =
                guards.iter().map(PageRef::id).collect();
            prop_assert_eq!(store.pinned_pages(), pinned.len(), "step {}", step);
            let mut resident = pinned;
            resident.extend(members);
            prop_assert_eq!(store.resident_pages(), resident.len(), "step {}", step);
            prop_assert!(
                store.peak_resident_pages() <= capacity + store.peak_pinned_pages(),
                "step {}: peak resident {} > buffer {} + peak pinned {}",
                step,
                store.peak_resident_pages(),
                capacity,
                store.peak_pinned_pages()
            );
        }
        drop(guards);
        prop_assert_eq!(store.resident_pages(), store.buffered_pages_mru_to_lru().len());
    }
}

/// The store enforces the frame check: a single object too large for any
/// page (which no packing can fix) is rejected with a panic instead of
/// being silently stored in an unserializable node.
#[test]
#[should_panic(expected = "page frame overflow")]
fn oversized_node_is_rejected_by_the_store() {
    let config = RTreeConfig {
        page_size: 128,
        max_entries: 64,
    };
    // A 20-vertex cell needs 28 + 20 × 16 = 348 bytes — more than a page.
    let vertices = (0..20)
        .map(|i| {
            let angle = i as f64 * std::f64::consts::TAU / 20.0;
            Point::new(5_000.0 + 100.0 * angle.cos(), 5_000.0 + 100.0 * angle.sin())
        })
        .collect();
    let cell = ConvexPolygon::new(vertices);
    let oversized = vec![CellObject::new(0, Point::new(5_000.0, 5_000.0), cell)];
    RTree::bulk_load_with_stats_on(config, IoStats::new(), oversized, 1.0, StorageBackend::File);
}
