//! The `quick` resilience table (`repro quick ext_resilience`), pinned
//! as literal text: 4x4 mesh, two flapping links, uniform traffic at
//! load 0.1, six MTBF/MTTR points under each of the four recovery
//! arms. The engine digests pin the simulator; this pins what the
//! fault layer's ledger, the flap timelines and the table show above
//! it, across commits and thread counts.

use noc_eval::effort::Effort;
use noc_eval::figures::resilience_figure;

const QUICK_TABLE: &str = "\
mode      mtbf  mttr  avail   delivered           retx  replays  epochs  recovery  latency
------------------------------------------------------------------------------------------
none      400   50    0.9904  6233/6250 (99.7%)   0     0        36      444       6.53
none      800   100   0.9907  6351/6360 (99.9%)   0     0        14      306       6.43
none      1200  150   0.9885  6388/6411 (99.6%)   0     0        10      771       6.53
none      1600  200   0.9967  6452/6470 (99.7%)   0     0        4       1172      6.47
none      2000  250   0.9872  6393/6408 (99.8%)   0     0        10      560       6.41
none      2400  300   0.9959  6397/6409 (99.8%)   0     0        6       1551      6.42
e2e       400   50    0.9904  6250/6250 (100.0%)  17    0        36      861       6.53
e2e       800   100   0.9907  6360/6360 (100.0%)  9     0        14      427       6.43
e2e       1200  150   0.9885  6411/6411 (100.0%)  23    0        10      972       6.53
e2e       1600  200   0.9967  6470/6470 (100.0%)  18    0        4       1665      6.47
e2e       2000  250   0.9872  6408/6408 (100.0%)  15    0        10      560       6.41
e2e       2400  300   0.9959  6409/6409 (100.0%)  12    0        6       1958      6.42
link      400   50    0.9904  6250/6250 (100.0%)  0     17       36      444       6.55
link      800   100   0.9907  6360/6360 (100.0%)  0     9        14      306       6.44
link      1200  150   0.9885  6411/6411 (100.0%)  0     23       10      771       6.57
link      1600  200   0.9967  6470/6470 (100.0%)  0     18       4       1172      6.49
link      2000  250   0.9872  6408/6408 (100.0%)  0     15       10      560       6.43
link      2400  300   0.9959  6409/6409 (100.0%)  0     12       6       1551      6.44
combined  400   50    0.9904  6250/6250 (100.0%)  0     17       36      444       6.55
combined  800   100   0.9907  6360/6360 (100.0%)  0     9        14      306       6.44
combined  1200  150   0.9885  6411/6411 (100.0%)  0     23       10      771       6.57
combined  1600  200   0.9967  6470/6470 (100.0%)  0     18       4       1172      6.49
combined  2000  250   0.9872  6408/6408 (100.0%)  0     15       10      560       6.43
combined  2400  300   0.9959  6409/6409 (100.0%)  0     12       6       1551      6.44
";

#[test]
fn quick_resilience_table_is_pinned() {
    let text = resilience_figure(&Effort::quick()).render();
    let table = &text[text.find("mode ").expect("table header")..];
    assert_eq!(table, QUICK_TABLE);
}
