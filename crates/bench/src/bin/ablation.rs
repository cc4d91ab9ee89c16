//! Runs the ablation studies A1-A6 of `ulp_bench::ablation`. Pass one of:
//! im-mapping | policy | cores | voltage | granularity | layout | all
//! (default).

use ulp_bench::ablation;
use ulp_bench::{calibrate, gather};
use ulp_kernels::{Benchmark, WorkloadConfig};

fn usage(studies: &[(&str, &dyn Fn())]) -> String {
    let names: Vec<&str> = studies.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: ablation [{}|all]\nRuns the architecture ablation studies \
         (IM mapping, serving policy, core count, sync granularity, buffer \
         layout, voltage sensitivity; default: all).",
        names.join("|")
    )
}

fn main() {
    let cfg = WorkloadConfig::paper();
    let b = Benchmark::Mrpfltr;
    // The single source of truth: study name -> runner. Usage, validation
    // and dispatch all derive from this table.
    let studies: &[(&str, &dyn Fn())] = &[
        ("im-mapping", &|| {
            println!("{}\n", ablation::im_mapping(b, &cfg))
        }),
        ("policy", &|| println!("{}\n", ablation::policy(b, &cfg))),
        ("cores", &|| println!("{}\n", ablation::cores(b, &cfg))),
        ("granularity", &|| {
            println!("{}\n", ablation::granularity(b, &cfg))
        }),
        ("layout", &|| println!("{}\n", ablation::layout(b, &cfg))),
        ("voltage", &|| {
            eprintln!("gathering activities for the voltage study ...");
            let data = gather(&cfg).expect("benchmark runs valid");
            let model = calibrate(&data);
            let d = data.benchmark(b);
            println!(
                "{}",
                ablation::voltage_sensitivity(&model, &d.act_with, &d.act_without)
            );
        }),
    ];

    if std::env::args().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage(studies));
        return;
    }
    if let Some(extra) = std::env::args().nth(2) {
        eprintln!("ablation: unexpected argument {extra:?}");
        eprintln!("{}", usage(studies));
        std::process::exit(2);
    }
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = arg == "all";
    if !all && !studies.iter().any(|(name, _)| *name == arg) {
        eprintln!("ablation: unknown study {arg:?}");
        eprintln!("{}", usage(studies));
        std::process::exit(2);
    }
    for (name, run) in studies {
        if all || *name == arg {
            run();
        }
    }
}
