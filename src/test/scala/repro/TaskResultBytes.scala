package repro

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Measures the bytes that tasks return to the driver (`resultSize`) over
  * the Spark jobs `body` runs. Jobs are attributed through a job group; the
  * listener is asynchronous, so a marker job is run afterwards and its end
  * event awaited — the bus delivers it after every earlier event.
  */
object TaskResultBytes {

  private final class Recorder(group: String, marker: String) extends SparkListener {
    private val stages = mutable.HashSet.empty[Int]
    private var markerJob = -1
    var bytes: Long = 0L
    var markerDone = false

    private def groupOf(e: SparkListenerJobStart): String =
      Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val g = groupOf(e)
      if (g == group) stages ++= e.stageIds
      else if (g == marker) markerJob = e.jobId
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (e.jobId == markerJob) markerDone = true
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (stages.contains(e.stageId) && e.taskMetrics != null) bytes += e.taskMetrics.resultSize
    }
  }

  def of[A](sc: SparkContext)(body: => A): (A, Long) = {
    val group = s"result-bytes-${System.nanoTime()}"
    val rec = new Recorder(group, s"$group-marker")
    sc.addSparkListener(rec)
    try {
      sc.setJobGroup(group, "measured")
      val a = try body finally sc.clearJobGroup()
      sc.setJobGroup(s"$group-marker", "marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!rec.synchronized(rec.markerDone)) {
        require(System.nanoTime() < deadline, "listener did not deliver the marker job")
        Thread.sleep(2)
      }
      (a, rec.synchronized(rec.bytes))
    } finally sc.removeSparkListener(rec)
  }
}
