package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.jdk.CollectionConverters._

/** Spark-level counters of one labelled span of driver code, summed over
  * the jobs the span started.
  */
final case class SpanCounters(
    jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
    shuffleWriteBytes: Long = 0, cpuNs: Long = 0, gcMs: Long = 0) {
  def +(o: SpanCounters): SpanCounters = SpanCounters(
    jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    shuffleWriteBytes + o.shuffleWriteBytes, cpuNs + o.cpuNs, gcMs + o.gcMs)
}

/** A `SparkListener` that attributes jobs, stages and task metrics to the
  * span label the driver set (local property [[SparkCounters.SpanKey]])
  * when it started each job. A stage counts towards the first span whose
  * job ran it.
  *
  * Listener events arrive asynchronously; [[drain]] runs a marker job and
  * waits until its end event has been delivered, so every earlier event
  * has been too.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters._

  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val counters  = new ConcurrentHashMap[String, SpanCounters]()
  private val markerJobs = new ConcurrentHashMap[Int, Long]()
  private val markerSeq  = new AtomicLong()
  @volatile private var lastMarker = 0L

  sc.addSparkListener(this)

  private def add(span: String, c: SpanCounters): Unit =
    counters.merge(span, c, (a: SpanCounters, b: SpanCounters) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).getOrElse(Unlabelled)
    if (span.startsWith(Marker)) markerJobs.put(e.jobId, span.stripPrefix(Marker).toLong)
    else {
      add(span, SpanCounters(jobs = 1))
      e.stageIds.foreach(id => stageSpan.putIfAbsent(id, span))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(markerJobs.remove(e.jobId)).foreach(n => lastMarker = math.max(lastMarker, n))

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageSpan.get(e.stageInfo.stageId)).foreach(s => add(s, SpanCounters(stages = 1)))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageSpan.get(e.stageId)).foreach { s =>
      val m = e.taskMetrics
      add(s, if (m == null) SpanCounters(tasks = 1) else SpanCounters(
        tasks = 1,
        shuffleWriteBytes = m.shuffleWriteMetrics.bytesWritten,
        cpuNs = m.executorCpuTime,
        gcMs = m.jvmGCTime))
    }

  /** Wait until every event posted before this call has been delivered. */
  def drain(): Unit = {
    val n = markerSeq.incrementAndGet()
    withSpan(sc, Marker + n)(sc.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (lastMarker < n && System.nanoTime() < deadline) Thread.sleep(1)
    require(lastMarker >= n, "Spark listener bus did not drain within 30 s")
  }

  /** Counters of every span seen so far, after draining the bus. */
  def snapshot(): Map[String, SpanCounters] = {
    drain()
    counters.asScala.toMap
  }

  def reset(): Unit = { drain(); counters.clear(); stageSpan.clear() }

  def close(): Unit = sc.removeSparkListener(this)
}

object SparkCounters {
  val SpanKey    = "perfbench.span"
  val Unlabelled = "unlabelled"
  private val Marker = "perfbench.marker#"

  /** Run `body` with its Spark jobs labelled `span`. */
  def withSpan[T](sc: SparkContext, span: String)(body: => T): T = {
    val prev = sc.getLocalProperty(SpanKey)
    sc.setLocalProperty(SpanKey, span)
    try body finally sc.setLocalProperty(SpanKey, prev)
  }
}
