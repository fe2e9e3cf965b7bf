"""Build file of the benchmark.

Compiles the program's sources (`src/main/scala`, `jobs`) together with the
benchmark's own (`perfbench/src/main/scala`) with the Scala compiler that
ships in the Spark distribution, and packs them into
`.bench_build/perfbench/perfbench.jar`. No build tool and no download is
needed: the Spark jars are the whole class path. The build is skipped when
no source changed since the last one.

    python3 perfbench/build.py        # build, print the class path
"""

import hashlib
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JAR = BUILD / "perfbench.jar"
STAMP = BUILD / "perfbench.jar.sha256"
SOURCE_DIRS = ("src/main/scala", "jobs", "perfbench/src/main/scala")
PROGRAM_DIR = "src/main/scala"


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def spark_jars() -> Path:
    """The `jars` directory of the Spark distribution: `$SPARK_HOME/jars`,
    or the one next to `spark-submit` on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("spark-sql_*.jar")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return jars


def sources() -> list:
    if not (ROOT / PROGRAM_DIR).is_dir():
        raise BuildError(f"program sources not found: {PROGRAM_DIR} is missing")
    files = sorted(p for d in SOURCE_DIRS if (ROOT / d).is_dir()
                   for p in (ROOT / d).rglob("*.scala"))
    return files


def fingerprint(files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath() -> str:
    return os.pathsep.join([str(JAR), str(spark_jars() / "*")])


def build() -> str:
    """Compile if a source changed; return the run-time class path."""
    files = sources()
    jars = spark_jars()
    digest = fingerprint(files)
    if JAR.is_file() and STAMP.is_file() and STAMP.read_text() == digest:
        return classpath()
    out = BUILD / "classes"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cp = str(jars / "*")
    cmd = [java(), "-Xss8m", "-Xmx2g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(out), "-classpath", cp] + [str(f) for f in files]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        raise BuildError("compilation failed:\n" + proc.stdout[-4000:])
    tmp_jar = JAR.with_suffix(".tmp")
    with zipfile.ZipFile(tmp_jar, "w", zipfile.ZIP_DEFLATED) as z:
        for f in sorted(out.rglob("*.class")):
            z.write(f, f.relative_to(out).as_posix())
    tmp_jar.replace(JAR)
    shutil.rmtree(out)
    STAMP.write_text(digest)
    return classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
