#!/usr/bin/env python3
"""Run one benchmark workload of the PPA assembler and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hc2-lr --seed 1 --seconds 1 --trace 0

The first run in a checkout compiles the program's sources together with
the benchmark (sbt, offline) into a directory of $CARGO_TARGET_DIR (default
.bench_build) named by a hash of the checkout's path and of its sources,
then assembles a small training workload once to record a class-data
archive of the classes a run loads. Later runs of the same checkout with
the same sources reuse both; any other checkout, or any change to the
sources, builds anew.
The archive spares every measured JVM most of Spark's class loading, which
otherwise costs 10-15 s per run. The last line of stdout is the result
document of the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
PROGRAM_SOURCES = os.path.join(REPO_DIR, "src", "main", "scala")
WORKLOADS = ("hc2-lr", "deep-clean")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Module opens that spark-submit adds on Java 17 (as in the repo's build.sbt).
JAVA_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")
] + ["-XX:+IgnoreUnrecognizedVMOptions", "-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_key():
    """A hash of the checkout's path and of the name and content of every
    file the build reads, so that a build is reused only for the very
    sources it was made from."""
    h = hashlib.sha256(REPO_DIR.encode())
    tops = [PROGRAM_SOURCES, os.path.join(BENCH_DIR, "src"),
            os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
    files = [t for t in tops if os.path.isfile(t)]
    for top in tops:
        for root, _, names in os.walk(top):
            files += [os.path.join(root, n) for n in names]
    for path in sorted(files):
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, REPO_DIR).encode() + b"\0" + hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def java_cmd(classpath, scratch, args, archive_flag):
    return ["java", "-Xmx3g", "-XX:+UseG1GC", archive_flag] + JAVA_OPENS + [
        "-Djava.io.tmpdir=" + os.path.join(scratch, "tmp"),
        "-Dspark.local.dir=" + os.path.join(scratch, "spark-local"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(scratch, "warehouse"),
        "-Dspark.driver.host=127.0.0.1",
        "-Dlog4j2.configurationFile=" + os.path.join(BENCH_DIR, "src", "main", "resources", "log4j2.properties"),
        "-cp", classpath, "perfbench.Main"] + args


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(os.path.join(path, "tmp"))
    return path


def build(build_dir):
    """Compile with sbt and record the class-data archive; return the
    runtime classpath."""
    stamp = os.path.join(build_dir, "classpath.txt")
    if os.path.exists(stamp):
        with open(stamp) as f:
            return f.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dperfbench.target=" + os.path.join(build_dir, "sbt"), "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out after %d s" % BUILD_TIMEOUT_S)
    lines = [l for l in p.stdout.splitlines() if ".jar" in l and os.pathsep in l]
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout)
        fail("build failed")
    classpath = lines[-1].strip()

    archive = os.path.join(build_dir, "classes.jsa")
    if os.path.exists(archive):
        os.remove(archive)
    scratch = fresh_dir(os.path.join(build_dir, "train"))
    train = java_cmd(classpath, scratch,
                     ["--workload", "class-training", "--seed", "0", "--seconds", "1", "--trace", "0"],
                     "-XX:ArchiveClassesAtExit=" + archive)
    with open(os.path.join(build_dir, "train.log"), "w") as log:
        try:
            subprocess.run(train, cwd=scratch, stdout=log, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, check=True)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as e:
            fail("recording the class-data archive failed (%s); see %s" % (e, log.name))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    with open(stamp, "w") as f:
        f.write(classpath)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(PROGRAM_SOURCES, "repro", "core", "Assembler.scala")):
        fail("the assembler's sources are not next to the benchmark (%s)" % PROGRAM_SOURCES)
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    build_dir = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                             "perfbench-" + build_key())
    os.makedirs(build_dir, exist_ok=True)
    classpath = build(build_dir)

    scratch = fresh_dir(os.path.join(build_dir, "run"))
    cmd = java_cmd(classpath, scratch,
                   ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace],
                   "-XX:SharedArchiveFile=" + os.path.join(build_dir, "classes.jsa"))
    proc = subprocess.Popen(cmd, cwd=scratch, stdout=subprocess.PIPE, text=True)
    # A terminated benchmark takes its JVM down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail("run failed with exit code %d" % proc.returncode)
    json.loads(lines[-1])
    print(out.strip())


if __name__ == "__main__":
    main()
