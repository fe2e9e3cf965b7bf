package perfbench

import java.util.Properties
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One traced interval. `parent` is -1 for the root; times are epoch
  * microseconds so benchmark spans and Spark's job timestamps share a clock.
  */
final case class Span(id: Long, parent: Long, kind: String, name: String,
                      startUs: Long, endUs: Long, attrs: Map[String, Any]) {
  def seconds: Double = (endUs - startUs) / 1e6
}

/** Task-metric sums of one Spark job. */
final class JobStats(val jobId: Int, val group: String, val startMs: Long) {
  var endMs: Long = -1L
  var tasks: Long = 0L
  var runMs: Long = 0L
  var cpuNs: Long = 0L
  var gcMs: Long = 0L
  var shuffleBytes: Long = 0L
  var resultBytes: Long = 0L
  var recordsRead: Long = 0L
}

/** SparkListener that sums task metrics per job and attributes each job to
  * the job group set by the caller (`SparkContext.setJobGroup`). Listener
  * events arrive asynchronously, so readers call [[Tracer.drain]] first.
  */
final class JobRecorder extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobStats]
  private val stageJob = mutable.HashMap.empty[Int, Int]

  // The property `SparkContext.setJobGroup` sets on the submitting thread.
  private def groupOf(p: Properties): String =
    Option(p).flatMap(pp => Option(pp.getProperty("spark.jobGroup.id"))).getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs(e.jobId) = new JobStats(e.jobId, groupOf(e.properties), e.time)
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (jobId <- stageJob.get(e.stageId); j <- jobs.get(jobId)) {
      j.tasks += 1
      val m = e.taskMetrics
      if (m != null) {
        j.runMs += m.executorRunTime
        j.cpuNs += m.executorCpuTime
        j.gcMs += m.jvmGCTime
        j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
        j.resultBytes += m.resultSize
        j.recordsRead += m.inputMetrics.recordsRead
      }
    }
  }

  def finished(group: String): Boolean = synchronized {
    jobs.valuesIterator.exists(j => j.group == group && j.endMs >= 0)
  }

  def byGroup(group: String): Seq[JobStats] = synchronized {
    jobs.valuesIterator.filter(_.group == group).toVector
  }
}

/** In-memory span store plus the job recorder. Spans are written out once,
  * when the run ends.
  */
final class Tracer(sc: SparkContext) {
  val recorder = new JobRecorder
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 0L
  private var drains = 0
  private val baseUs = System.currentTimeMillis() * 1000L
  private val baseNs = System.nanoTime()

  def nowUs: Long = baseUs + (System.nanoTime() - baseNs) / 1000L

  def start(): Unit = sc.addSparkListener(recorder)
  def stop(): Unit = sc.removeSparkListener(recorder)

  /** Run `body` (given the new span's id) as a span under `parent`; Spark
    * jobs it starts carry the span id as their job group. Returns the
    * result and the span.
    */
  def span[A](parent: Long, kind: String, name: String)(body: Long => A): (A, Span) = {
    val id = nextId; nextId += 1
    sc.setJobGroup(id.toString, s"$kind $name")
    val t0 = nowUs
    try {
      val a = body(id)
      val sp = Span(id, parent, kind, name, t0, nowUs, Map.empty)
      spans += sp
      (a, sp)
    } finally {
      if (parent >= 0) sc.setJobGroup(parent.toString, "") else sc.clearJobGroup()
    }
  }

  /** Open a span whose end is set later by [[close]] (for the root span). */
  def open(parent: Long, kind: String, name: String): Span = {
    val sp = Span(nextId, parent, kind, name, nowUs, -1L, Map.empty)
    nextId += 1
    sp
  }
  def close(sp: Span): Span = { val c = sp.copy(endUs = nowUs); spans += c; c }

  /** Block until the listener has seen every event posted so far: run a
    * marker job and wait for its end event, which the listener bus delivers
    * after all earlier events.
    */
  def drain(): Unit = {
    drains += 1
    val group = s"drain-$drains"
    sc.setJobGroup(group, "drain")
    try sc.parallelize(Seq(1), 1).count(): Unit
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!recorder.finished(group)) {
      require(System.nanoTime() < deadline, "listener did not deliver the marker job")
      Thread.sleep(2)
    }
  }

  /** Spark jobs of span `sp`. */
  def jobsOf(sp: Span): Seq[JobStats] = recorder.byGroup(sp.id.toString)

  /** All spans, plus one child span per Spark job of a recorded span. */
  def allSpans: Seq[Span] = {
    var id = nextId
    val jobSpans = spans.toVector.flatMap { p =>
      jobsOf(p).map { j =>
        id += 1
        Span(id, p.id, "job", s"job ${j.jobId}", j.startMs * 1000L, j.endMs * 1000L,
             Map("tasks" -> j.tasks, "run_ms" -> j.runMs, "cpu_ns" -> j.cpuNs, "gc_ms" -> j.gcMs,
                 "shuffle_bytes" -> j.shuffleBytes, "result_bytes" -> j.resultBytes,
                 "records_read" -> j.recordsRead))
      }
    }
    spans.toVector ++ jobSpans
  }
}

object Tracer {
  /** Length of the union of [start, end) intervals: the time at least one
    * job of an iteration was running.
    */
  def unionMs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }
}
