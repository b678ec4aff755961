package perfbench

import com.sun.management.GarbageCollectionNotificationInfo
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.jdk.CollectionConverters._

/** Largest heap in use right after a garbage collection, over the period
  * since the last [[reset]]: the live data plus what the collector could
  * not yet free, read from the JVM's own GC notifications.
  */
object HeapPeak {
  @volatile private var peak = 0L

  private val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet

  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        if (used > peak) peak = used
      }
  }

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ => ()
  }

  def reset(): Unit = peak = 0L

  def peakBytes: Long = peak
}
