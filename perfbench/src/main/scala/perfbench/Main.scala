package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.SparkSession
import repro.data.Store
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

/** Raw measurements of one run, written as JSON for `report.py`, which
  * turns them into the metrics the benchmark prints.
  */
final class Results {
  val env = mutable.LinkedHashMap.empty[String, Any]
  val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  val units = mutable.LinkedHashMap.empty[String, String]
  val fits = mutable.ArrayBuffer.empty[Map[String, Any]]
  val errors = mutable.ArrayBuffer.empty[String]
  var attempted = 0
  var failed = 0

  def add(name: String, unit: String, v: Double): Unit = {
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    units(name) = unit
  }

  def toJson: String = new ObjectMapper().registerModule(DefaultScalaModule)
    .writeValueAsString(Map(
      "env" -> env, "samples" -> samples, "units" -> units, "fits" -> fits,
      "errors" -> errors, "attempted" -> attempted, "failed" -> failed))
}

/** The benchmark's JVM side. One process runs one workload: set-up (Spark
  * session, input generation, JIT warm-up), then either timed `train` calls
  * of M, S and F (`--trace 0`) or the traced per-layer run (`--trace 1`).
  * It only calls the program's public API and never changes it.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  /** Iterations (GMM) or epochs (NN) per fit. Every algorithm runs the same
    * count, so their objectives must agree at the end of each fit; two
    * checks the M-step as well as the E-step.
    */
  val Iters = 2
  /** Generation + write of S and R repeats this often during set-up; set-up
    * time counts the median.
    */
  val GenReps = 3
  /** Untimed rounds of M, S and F fits before the first timed one. */
  val WarmRounds = 2

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         need("out"))
  }

  private def now: Double = System.nanoTime() / 1e9

  private def timed[A](body: => A): (A, Double) = {
    val t0 = now; val a = body; (a, now - t0)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val o = parse(args)
    val wl = Workloads.byName(o.workload, Iters)
    // One local executor thread per processor the JVM may use (this
    // respects CPU affinity), so the load never exceeds `nproc`.
    val threads = Runtime.getRuntime.availableProcessors
    val res = new Results
    val tmp = System.getProperty("java.io.tmpdir")
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName(s"perfbench-${o.workload}")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", tmp)
      .config("spark.sql.warehouse.dir", Paths.get(tmp, "warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1000.0
    val store = Store.temp(spark, "perfbench-store")
    try {
      val sc = spark.sparkContext
      res.env ++= Seq(
        "workload" -> wl.name, "seed" -> o.seed, "iters" -> wl.iters, "scale" -> Workloads.Scale,
        "nS" -> wl.nS, "nR" -> wl.nRs, "dS" -> wl.dS, "dR" -> wl.dRs,
        "spark_master" -> sc.master, "default_parallelism" -> sc.defaultParallelism,
        "spark_version" -> spark.version, "max_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
        "spark_threads" -> threads)

      // Set-up: generation and writing repeat `GenReps` times so the
      // reported set-up time takes their median.
      val tracer = if (o.trace) Some(new Tracer(sc)) else None
      val root = tracer.map(_.open(-1L, "workload", wl.name))
      def phase[A](kind: String, name: String)(body: => A): A = tracer match {
        case Some(t) => t.span(root.get.id, kind, name)(_ => body)._1
        case None    => body
      }
      val gens = (0 until GenReps).map { i =>
        timed(phase("setup", s"generate $i")(wl.write(spark, store, o.seed, s"g$i")))
      }
      val tb = gens.last._1
      gens.foreach { case (_, s) => res.add("data.gen_s", "s", s) }
      // JIT warm-up: unreported rounds of the same fits the run times. The
      // first round costs about twice a warm one and the second a little
      // more (the compiler is still at work), so timing starts after them.
      val (_, warmS) = timed(phase("setup", "warm-up") {
        val m0 = wl.init(o.seed)
        for (round <- 0 until WarmRounds)
          judge(wl, round, "warm-up", order(round).map { a =>
            val (t, secs) = timed(Try(wl.train(a, store, tb, m0)))
            (a, t, secs)
          }, res)
      })
      res.add("setup_s", "s", sessionS + median(gens.map(_._2)) + warmS)
      res.env ++= Seq("session_s" -> sessionS, "warmup_s" -> warmS,
        "partitions_S" -> tb.s.rdd.getNumPartitions,
        "partitions_R" -> tb.rs.map(_.rdd.getNumPartitions))

      val deadline = now + o.seconds
      tracer match {
        case None    => timeFits(wl, store, tb, o.seed, deadline, res)
        case Some(t) => traceLayers(wl, store, tb, deadline, t, root.get, res, o)
      }
      res.env("partitions_T") = store.read("T").rdd.getNumPartitions
    } catch {
      case e: Throwable =>
        res.errors += s"${e.getClass.getName}: ${e.getMessage}"
        e.printStackTrace()
    } finally {
      store.close()
      spark.stop()
      Files.writeString(Paths.get(o.out), res.toJson)
    }
  }

  /** Rotate the M/S/F order each round so no algorithm always runs first. */
  private def order(round: Int): Seq[Algo] = {
    val r = round % Algo.all.length
    Algo.all.drop(r) ++ Algo.all.take(r)
  }

  /** Judge one round: a fit fails if it threw, produced a non-finite
    * objective, or disagrees with another successful fit of the round.
    */
  private def judge(wl: Workload, round: Int, kind: String,
                    fits: Seq[(Algo, Try[Seq[Double]], Double)], res: Results): Unit = {
    val finals = fits.collect { case (a, Success(objs), _) if objs.nonEmpty && objs.forall(_.isFinite) =>
      a -> objs.last }.toMap
    fits.foreach { case (a, t, secs) =>
      val ok = finals.get(a).exists(x => finals.forall { case (_, y) => wl.agree(x, y) })
      res.attempted += 1
      if (!ok) {
        res.failed += 1
        res.errors += (t match {
          case Failure(e) => s"${a.tag} round $round: ${e.getClass.getName}: ${e.getMessage}"
          case Success(objs) => s"${a.tag} round $round: final objective ${objs.lastOption} " +
                                s"disagrees with ${finals.map { case (b, y) => s"${b.tag}=$y" }.mkString(", ")}"
        })
      }
      res.fits += Map("algo" -> a.tag, "round" -> round, "kind" -> kind, "seconds" -> secs,
                      "ok" -> ok, "objectives" -> t.getOrElse(Seq.empty))
    }
  }

  /** Untraced run: whole rounds of `train` calls until the next round
    * would pass the deadline. At least three rounds run, so each median
    * sets aside one slow round, such as the first, still partly cold.
    */
  private def timeFits(wl: Workload, store: Store, tb: Tables, seed: Long,
                       deadline: Double, res: Results): Unit = {
    val init = wl.init(seed)
    var round = 0
    var roundS = 0.0
    while (round < 3 || now + roundS <= deadline) {
      val t0 = now
      val fits = order(round).map { a =>
        val (t, secs) = timed(Try(wl.train(a, store, tb, init)))
        res.add(s"train_s.${a.tag}", "s", secs)
        (a, t, secs)
      }
      judge(wl, round, "train", fits, res)
      roundS = now - t0
      round += 1
    }
    res.env("rounds") = round
  }

  private val oldGen = ManagementFactory.getMemoryPoolMXBeans.asScala
    .find(p => p.getType == MemoryType.HEAP && (p.getName.contains("Old") || p.getName.contains("Tenured")))

  /** Traced run: rounds of step-by-step fits under spans, each round
    * followed by one untraced `train` per algorithm with the listener off
    * (the overhead baseline); then the decode-only passes and the linalg
    * microbench.
    */
  private def traceLayers(wl: Workload, store: Store, tb: Tables, deadline: Double,
                          tracer: Tracer, root: Span, res: Results, o: Opts): Unit = {
    val init = wl.init(o.seed)
    val iterSpans = mutable.ArrayBuffer.empty[(Algo, Span)]
    tracer.start()
    var round = 0
    var roundS = 0.0
    while (round == 0 || now + roundS <= deadline) {
      val t0 = now
      val traced = order(round).map { a =>
        oldGen.foreach(_.resetPeakUsage())
        val (t, fitSpan) = tracer.span(root.id, "fit", s"${a.tag}#$round") { fitId =>
          Try {
            def iterate[D](data: D)(step: (D, wl.Model) => (wl.Model, Double)): Seq[Double] = {
              var m = init
              (0 until wl.iters).map { i =>
                val ((next, obj), sp) = tracer.span(fitId, "iter", s"${a.tag}#$round.$i")(_ => step(data, m))
                iterSpans += a -> sp
                m = next
                obj
              }
            }
            a match {
              case Algo.M =>
                val (t, sp) = tracer.span(fitId, "phase", "materialize")(_ => store.write("T", wl.denormJoin(tb)))
                res.add("data.materialize_s.M", "s", sp.seconds)
                iterate(t)(wl.denormStep)
              case Algo.S => iterate(wl.denormJoin(tb))(wl.denormStep)
              case Algo.F =>
                val (r, sp) = tracer.span(fitId, "phase", "prep")(_ => wl.collectR(tb))
                res.add("core.prep_s.F", "s", sp.seconds)
                iterate(r)((rr, m) => wl.fStep(tb, rr, m))
            }
          }
        }
        oldGen.foreach(p => res.add(s"jvm.old_gen_peak_mb.${a.tag}", "MB", p.getPeakUsage.getUsed / 1048576.0))
        (a, t, fitSpan.seconds)
      }
      judge(wl, round, "traced", traced, res)
      tracer.drain()
      tracer.stop()
      val untraced = order(round).map { a =>
        val (t, secs) = timed(Try(wl.train(a, store, tb, init)))
        (a, t, secs)
      }
      judge(wl, round, "untraced", untraced, res)
      for (((a, _, tr), (_, _, un)) <- traced.zip(untraced))
        res.add(s"trace.overhead_s.${a.tag}", "s", tr - un)
      tracer.start()
      roundS = now - t0
      round += 1
    }
    res.env("rounds") = round

    for ((a, sp) <- iterSpans) {
      val jobs = tracer.jobsOf(sp)
      val tag = a.tag
      val jobS = Tracer.unionMs(jobs.map(j => (j.startMs, j.endMs))) / 1000.0
      res.add(s"core.iter_s.$tag", "s", sp.seconds)
      res.add(s"core.driver_s.$tag", "s", sp.seconds - jobS)
      res.add(s"spark.job_s.$tag", "s", jobS)
      res.add(s"spark.task_run_s.$tag", "s", jobs.map(_.runMs).sum / 1000.0)
      res.add(s"spark.task_cpu_s.$tag", "s", jobs.map(_.cpuNs).sum / 1e9)
      res.add(s"spark.gc_s.$tag", "s", jobs.map(_.gcMs).sum / 1000.0)
      res.add(s"spark.shuffle_bytes.$tag", "bytes", jobs.map(_.shuffleBytes).sum.toDouble)
      res.add(s"spark.result_bytes.$tag", "bytes", jobs.map(_.resultBytes).sum.toDouble)
      res.add(s"spark.records_read.$tag", "count", jobs.map(_.recordsRead).sum.toDouble)
      res.add(s"spark.tasks.$tag", "count", jobs.map(_.tasks).sum.toDouble)
      res.add(s"spark.jobs.$tag", "count", jobs.length.toDouble)
    }
    // Decode-only passes, three each; "T" is M's materialized join.
    for (i <- 0 until 3) {
      res.add("data.scan_s.S", "s", tracer.span(root.id, "scan", s"S $i")(_ => wl.scanF(tb))._2.seconds)
      res.add("data.scan_s.T", "s",
        tracer.span(root.id, "scan", s"T $i")(_ => wl.scanDenorm(store.read("T")))._2.seconds)
      res.add("data.join_s.S", "s",
        tracer.span(root.id, "scan", s"join $i")(_ => wl.scanDenorm(wl.denormJoin(tb)))._2.seconds)
    }
    tracer.drain()
    tracer.stop()

    tb.names.zip("S" +: tb.rs.indices.map(i => if (tb.rs.length == 1) "R" else s"R${i + 1}")).foreach {
      case (n, label) => res.env(s"bytes_$label") = store.sizeBytes(n)
    }
    res.add("data.bytes.S", "bytes", store.sizeBytes(tb.names.head).toDouble)
    res.add("data.bytes.R", "bytes", tb.names.tail.map(store.sizeBytes).sum.toDouble)
    res.add("data.bytes.T", "bytes", store.sizeBytes("T").toDouble)

    LinalgMicro.run(wl, o.seed).foreach { case (name, unit, xs) => xs.foreach(res.add(name, unit, _)) }

    val rootSpan = tracer.close(root)
    val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
    val lines = tracer.allSpans.map { s =>
      mapper.writeValueAsString(Map("id" -> s.id, "parent" -> s.parent, "kind" -> s.kind,
        "name" -> s.name, "start_us" -> s.startUs, "end_us" -> s.endUs, "attrs" -> s.attrs))
    }
    val spansPath = Paths.get(o.out).resolveSibling("spans.jsonl")
    Files.write(spansPath, lines.asJava)
    res.env("spans") = lines.length
    res.env("spans_file") = spansPath.getFileName.toString
    res.env("traced_s") = rootSpan.seconds
  }
}
