//! E3 — the application inventory (Table 3), with measured reference
//! counts at the selected scale.

use rnuma::config::Protocol;
use rnuma_bench::{apps, parse_scale, save, sweep_protocol_grid, TextTable};
use rnuma_workloads::input_description;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    let mut t = TextTable::new(
        "application  input (Table 3)                                               references   shared pages",
    );
    let mut csv = String::from("app,references,shared_pages\n");
    let grid = sweep_protocol_grid(apps(), &[Protocol::ideal()], scale);
    for (app, row) in apps().iter().zip(&grid) {
        let report = &row[0];
        let refs = report.metrics.references();
        let pages = report.metrics.shared_pages();
        t.row(format!(
            "{app:12} {desc:60} {refs:12} {pages:8}",
            desc = input_description(app).expect("documented"),
        ));
        csv.push_str(&format!("{app},{refs},{pages}\n"));
    }
    let out = t.render();
    print!("{out}");
    save("table3_apps.txt", &out);
    save("table3_apps.csv", &csv);
}
