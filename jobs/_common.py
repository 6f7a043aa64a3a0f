"""Shared argparse/session plumbing for the job entrypoints."""
from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import tempfile


def base_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--workdir", default=None, help="scratch dir for index data (default: temp)")
    p.add_argument("--queries", type=int, default=10, help="queries per measurement point")
    p.add_argument("--k", type=int, default=50, help="kNN answer size (paper default 500 → scaled 50)")
    p.add_argument("--out-json", default=None, help="also dump rows as JSON here")
    return p


def resolve_workdir(args) -> str:
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        return args.workdir
    d = tempfile.mkdtemp(prefix="repro-job-")
    atexit.register(shutil.rmtree, d, ignore_errors=True)
    return d


def emit(rows, args, table_str: str) -> None:
    print(table_str)
    if args.out_json:
        with open(args.out_json, "w") as f:
            json.dump(rows, f, indent=1)
        print(f"[rows written to {args.out_json}]")
