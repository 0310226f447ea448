#!/usr/bin/env python3
"""Builds the measured-results summary for EXPERIMENTS.md from results/*.csv.

Usage: python3 scripts/summarize_results.py [results_dir]
Prints a markdown block; EXPERIMENTS.md's `<!-- MEASURED_SUMMARY -->` marker
is replaced by this block when run with --apply.
"""

import csv
import sys
from pathlib import Path


def read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fmt(v, nd=3):
    return f"{float(v):.{nd}f}"


def main():
    results = Path(sys.argv[1] if len(sys.argv) > 1 and not sys.argv[1].startswith("--") else "results")
    out = []

    # Table III summary: per-model mean MSE + count row.
    t3 = results / "table3_multivariate.csv"
    if t3.exists():
        rows = read(t3)
        models = {}
        for r in rows:
            models.setdefault(r["Model"], []).append(float(r["MSE"]))
        out.append("**Table III** mean test MSE over all dataset/horizon cells:")
        out.append("")
        out.append("| Model | mean MSE | cells |")
        out.append("|---|---|---|")
        for m, vals in sorted(models.items(), key=lambda kv: sum(kv[1]) / len(kv[1])):
            out.append(f"| {m} | {fmt(sum(vals)/len(vals))} | {len(vals)} |")
        counts = results / "table3_counts.csv"
        if counts.exists():
            out.append("")
            out.append("First-place / top-two finishes (MSE+MAE): " + ", ".join(
                f"{r['Model']} {r['FirstPlace']}/{r['TopTwo']}" for r in read(counts)))
        out.append("")

    # Efficiency snapshot from table3: LiPFormer vs PatchTST/iTransformer.
    if t3.exists():
        rows = read(t3)
        eff = {}
        for r in rows:
            if r["Dataset"] == "etth1" and r["L"] == rows[0]["L"]:
                eff[r["Model"]] = (r["MACs"], r["Params"], r["InferS"])
        if eff:
            out.append("**Efficiency** (ETTh1, shortest horizon): " + "; ".join(
                f"{m}: {v[0]} MACs, {v[1]} params, {v[2]}" for m, v in eff.items()))
            out.append("")

    # Table VII speedups.
    t7 = results / "table7_edge.csv"
    if t7.exists():
        rows = read(t7)
        out.append("**Table VII** Transformer/LiPFormer inference-latency ratio by input length:")
        out.append("")
        out.append("| Dataset | " + " | ".join(sorted({r["InputLen"] for r in rows}, key=int)) + " |")
        datasets = sorted({r["Dataset"] for r in rows})
        lens = sorted({r["InputLen"] for r in rows}, key=int)
        out.append("|---|" + "---|" * len(lens))
        for d in datasets:
            cells = []
            for ln in lens:
                match = [r for r in rows if r["Dataset"] == d and r["InputLen"] == ln]
                cells.append(match[0]["Speedup"] if match else "-")
            out.append(f"| {d} | " + " | ".join(cells) + " |")
        out.append("")

    # Simple per-file one-liners.
    for name, title, keyfn in [
        ("table6_pretrain.csv", "**Table VI** dMSE% (pretrain vs not): ",
         lambda r: f"{r['Dataset']} {r['dMSE%']}%"),
        ("fig6_covariate_ablation.csv", "**Figure 6** MSE increase without encoder: ",
         lambda r: f"L={r['L']}: +{r['dMSE%']}%"),
        ("fig7_stats.csv", "**Figure 7** diag vs off-diag mean logit / period peak: ",
         lambda r: f"{r['Dataset']} {r['DiagMean']}|{r['OffDiagMean']}, peak {r[[k for k in r if k.startswith('PeakOffset')][0]]} (expect {r['ExpectedPeriod(windows)']})"),
    ]:
        p = results / name
        if p.exists():
            out.append(title + "; ".join(keyfn(r) for r in read(p)))
            out.append("")

    # Table X / XI: mean MSE per variant.
    for name, title in [("table10_lightweight_ablation.csv", "**Table X** mean MSE by variant: "),
                        ("table11_attention_ablation.csv", "**Table XI** mean MSE by variant: ")]:
        p = results / name
        if p.exists():
            rows = read(p)
            variants = {}
            for r in rows:
                variants.setdefault(r["Variant"], []).append(float(r["MSE"]))
            out.append(title + "; ".join(
                f"{v} {fmt(sum(x)/len(x))}" for v, x in variants.items()))
            out.append("")

    # Table XII: per-model improvement.
    p = results / "table12_transplant.csv"
    if p.exists():
        rows = read(p)
        pieces = []
        for r in rows:
            base = float(r["MSE(base)"])
            enc = float(r["MSE(+enc)"])
            pieces.append(f"{r['Model']} L={r['L']}: {fmt(base)}->{fmt(enc)}")
        out.append("**Table XII** MSE base -> +encoder: " + "; ".join(pieces))
        out.append("")

    block = "\n".join(out)
    if "--apply" in sys.argv:
        exp = Path("EXPERIMENTS.md")
        text = exp.read_text()
        text = text.replace("<!-- MEASURED_SUMMARY -->", block)
        exp.write_text(text)
        print("applied to EXPERIMENTS.md")
    else:
        print(block)


if __name__ == "__main__":
    main()
