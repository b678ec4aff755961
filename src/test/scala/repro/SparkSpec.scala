package repro

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so that Spark SQL joins and
  * aggregations always take the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Shuffle bytes written by the jobs `body` runs, per stage that wrote
    * any, summed by a `SparkListener` once a marker job's end event shows
    * that every earlier event has been delivered.
    */
  def shuffleBytesByStage[T](body: => T): (T, Map[Int, Long]) = {
    val sc = spark.sparkContext
    val bytes = new ConcurrentHashMap[Int, AtomicLong]()
    val ended = ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).map(_.shuffleWriteMetrics.bytesWritten).filter(_ > 0)
          .foreach(b => bytes.computeIfAbsent(e.stageId, _ => new AtomicLong()).addAndGet(b))
      override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.add(e.jobId)
    }
    sc.addSparkListener(listener)
    try {
      val result = body
      val group = s"shuffle-bytes-marker-${System.nanoTime()}"
      sc.setJobGroup(group, "listener drain marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val marker = sc.statusTracker.getJobIdsForGroup(group).max
      val deadline = System.nanoTime() + 30L * 1000000000L
      while (!ended.contains(marker) && System.nanoTime() < deadline) Thread.sleep(1)
      assert(ended.contains(marker), "Spark listener bus did not drain within 30 s")
      (result, bytes.asScala.map { case (s, b) => (s, b.get) }.toMap)
    } finally sc.removeSparkListener(listener)
  }

  /** Shuffle bytes written by the jobs `body` runs (see [[shuffleBytesByStage]]). */
  def shuffleBytesOf[T](body: => T): (T, Long) = {
    val (result, byStage) = shuffleBytesByStage(body)
    (result, byStage.values.sum)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
