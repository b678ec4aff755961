package repro.pregel

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import repro.SparkSpec

class PregelRuntimeSpec extends SparkSpec {

  /** A toy program's bound: loose, so that only the guard test reaches it. */
  private val toy: Long => Int = _ => 1000

  private def forced[T](serial: Boolean)(body: => T): T =
    PregelRuntime.forceSerial.withValue(Some(serial))(body)

  /** Runs `body` on the driver path, then on the Spark path; checks that
    * both give the same states, supersteps, messages and per-superstep
    * trace, that each trace adds up to its totals, and that the stats name
    * the path. Returns the driver path's run.
    */
  private def onBothPaths[V](body: => (RDD[(Long, V)], PregelStats)): (RDD[(Long, V)], PregelStats) = {
    val runs = Seq(true, false).map(serial => forced(serial)(body))
    val seen = runs.map { case (out, st) =>
      assert(st.steps.size == st.supersteps)
      assert(st.steps.map(_.messages).sum == st.messages)
      assert(st.steps.map(_.superstep) == st.steps.indices)
      (out.collect().toMap, st.supersteps, st.messages,
       st.steps.map(s => (s.activeVertices, s.messages, s.agg)))
    }
    assert(runs.map(_._2.serial) == Seq(true, false))
    assert(seen(0) == seen(1), "driver and Spark paths differ")
    runs.head
  }

  test("a program with no messages terminates after one superstep") {
    val vs = spark.sparkContext.parallelize((1L to 10L).map(i => (i, i)), 2)
    val (out, stats) = onBothPaths(PregelRuntime.run[Long](vs, (ctx, id, v, msgs) => v, "toy", toy))
    assert(out.collect().toMap == (1L to 10L).map(i => i -> i).toMap)
    assert(stats.supersteps == 1)
    assert(stats.messages == 0)
  }

  test("messages are delivered to arbitrary vertex IDs (not only edges)") {
    // every vertex sends its id to vertex 1 at superstep 0; vertex 1 sums
    val vs = spark.sparkContext.parallelize((1L to 20L).map(i => (i, 0L)), 4)
    val (out, stats) = onBothPaths(PregelRuntime.run[Long](vs,
      (ctx, id, v, msgs) => {
        if (ctx.superstep == 0) { ctx.send(1L, 0, id, 0L); v }
        else v + msgs.map(_.a).sum
      }, "toy", toy))
    assert(out.collect().toMap.apply(1L) == (1L to 20L).sum)
    assert(stats.messages == 20)
    assert(stats.supersteps == 2)
  }

  test("halted vertices are reactivated by incoming messages") {
    // a chain relay: vertex i forwards a token to i+1; all halt in between
    val n = 6L
    val vs = spark.sparkContext.parallelize((1L to n).map(i => (i, false)), 2)
    val (out, stats) = onBothPaths(PregelRuntime.run[Boolean](vs,
      (ctx, id, v, msgs) => {
        if (ctx.superstep == 0 && id == 1L) { ctx.send(2L, 0, 0L, 0L); true }
        else if (msgs.nonEmpty) { if (id < n) ctx.send(id + 1, 0, 0L, 0L); true }
        else v
      }, "toy", toy))
    assert(out.collect().forall(_._2))
    assert(stats.supersteps == n.toInt)
    assert(stats.messages == n - 1)
  }

  test("aggregator sums contributions and is visible next superstep") {
    val vs = spark.sparkContext.parallelize((1L to 5L).map(i => (i, 0L)), 2)
    val (out, _) = onBothPaths(PregelRuntime.run[Long](vs,
      (ctx, id, v, msgs) => {
        if (ctx.superstep == 0) { ctx.aggValue = id; ctx.send(id, 0, 0L, 0L); v }
        else ctx.agg // must see 1+2+3+4+5
      }, "toy", toy))
    assert(out.collect().forall(_._2 == 15L))
  }

  test("stopWhen halts the run early") {
    val vs = spark.sparkContext.parallelize(Seq((1L, 0L)), 1)
    val (out, stats) = onBothPaths(PregelRuntime.run[Long](vs,
      (ctx, id, v, msgs) => { ctx.send(id, 0, 0L, 0L); ctx.remainActive(); v + 1 },
      "toy", toy, stopWhen = t => t.size >= 5))
    assert(stats.supersteps == 5)
    assert(out.collect().head._2 == 5L)
  }

  test("maxSupersteps guards against non-termination") {
    // A program that never halts fails fast on either path, naming itself,
    // n and the bound.
    val vs = spark.sparkContext.parallelize((1L to 3L).map(i => (i, 0L)), 2)
    for (serial <- Seq(true, false)) {
      val t0 = System.nanoTime()
      val e = intercept[IllegalArgumentException] {
        forced(serial) {
          PregelRuntime.run[Long](vs,
            (ctx, id, v, msgs) => { ctx.send(id, 0, 0L, 0L); v },
            "ping-self", n => 2 * n.toInt + 4)
        }
      }
      assert((System.nanoTime() - t0) / 1e9 < 10.0, s"serial = $serial")
      for (part <- Seq("ping-self", "n = 3 ", "bound of 10 supersteps"))
        assert(e.getMessage.contains(part), s"serial = $serial: ${e.getMessage}")
    }
  }

  test("messages to unknown vertex IDs are dropped") {
    val vs = spark.sparkContext.parallelize(Seq((1L, 0L)), 1)
    val (out, stats) = onBothPaths(PregelRuntime.run[Long](vs,
      (ctx, id, v, msgs) => { if (ctx.superstep == 0) ctx.send(999L, 0, 1L, 0L); v }, "toy", toy))
    assert(stats.messages == 1)
    assert(out.count() == 1)
  }

  test("paper Fig 1: list-ranking sum via request-respond pointer jumping") {
    // linked list v1 <- v2 <- ... <- v5, val = 1 each; expect sum(vi) = i
    import PregelRuntimeSpec.S
    val init = (1L to 5L).map(i => (i, S(1, 1, i - 1)))
    val vs = spark.sparkContext.parallelize(init, 2)
    // request (0, requester, 0); response (1, sum, pred)
    val (out, stats) = onBothPaths(PregelRuntime.run[S](vs,
      (ctx, id, v, msgs) => {
        if (ctx.superstep % 2 == 0) {
          var s = v
          msgs.foreach { m => if (m.kind == 1) s = s.copy(sum = s.sum + m.a, pred = m.b) }
          if (s.pred != 0L) { ctx.send(s.pred, 0, id, 0L); ctx.remainActive() }
          s
        } else {
          msgs.foreach(m => if (m.kind == 0) ctx.send(m.a, 1, v.sum, v.pred))
          v
        }
      }, "toy", toy))
    val sums = out.collect().toMap
    for (i <- 1L to 5L) assert(sums(i).sum == i, s"vertex $i")
    // log-round bound: ceil(log2 5) = 3 rounds of 2 supersteps (+ final check)
    assert(stats.supersteps <= 8)
  }

  /** Two vertices passing a counter back and forth for 41 supersteps, so
    * that a Spark-path run crosses three local checkpoints (every 12
    * supersteps).
    */
  private def pingPong() = forced(serial = false) {
    val vs = spark.sparkContext.parallelize(Seq((1L, 0L), (2L, 0L)), 1)
    PregelRuntime.run[Long](vs,
      (ctx, id, v, msgs) => {
        if (v < 40) { ctx.send(3L - id, 0, v + 1, 0L); v + 1 } else v
      }, "ping-pong", toy)
  }

  test("long chains do not overflow lineage (localCheckpoint kicks in)") {
    val (out, stats) = pingPong()
    assert(stats.supersteps >= 40)
    assert(out.collect().forall(_._2 >= 40L))
  }

  test("the final state survives eviction of every cached block but the last checkpoint") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (out, stats) = pingPong()
    assert(stats.supersteps == 41)
    val persisted = sc.getPersistentRDDs.filter { case (id, _) => !before.contains(id) }.values
    assert(persisted.exists(_.isCheckpointed), "the run keeps its newest checkpoint cached")
    // Simulated eviction: drop every block that lineage can recompute.
    persisted.filterNot(_.isCheckpointed).foreach(_.unpersist(blocking = true))
    assert(out.collect().toMap == Map(1L -> 40L, 2L -> 40L))
    persisted.foreach(_.unpersist(blocking = true))
  }

  test("each inbox arrives sorted by (kind, a, b), whatever the partitioning") {
    // 20 vertices send signed triples to vertex 1 in an order that is not
    // sorted; vertex 1 records its inbox as its state.
    val rnd = new scala.util.Random(5)
    val triples = Seq.fill(20)(Msg(rnd.nextInt(3), rnd.nextInt(7) - 3L, rnd.nextLong()))
    assert(triples != triples.sorted)
    def inboxOf(parts: Int): Seq[Msg] = {
      val vs = spark.sparkContext.parallelize((1L to 20L).map(i => (i, Seq.empty[Msg])), parts)
      val (out, _) = onBothPaths(PregelRuntime.run[Seq[Msg]](vs,
        (ctx, id, v, msgs) => {
          if (ctx.superstep == 0) { val m = triples(id.toInt - 1); ctx.send(1L, m.kind, m.a, m.b); v }
          else v ++ msgs
        }, "toy", toy))
      out.collect().toMap.apply(1L)
    }
    val recorded = inboxOf(1)
    assert(recorded == triples.sorted)
    for (parts <- Seq(3, 7)) assert(inboxOf(parts) == recorded, s"$parts input partitions")
  }

  test("the driver path hands back defaultParallelism partitions on the run's partitioner") {
    // Each vertex sits where the run's partitioner puts it, and the states
    // do not depend on the input's partition count.
    val sc = spark.sparkContext
    def run(parts: Int) = forced(serial = true) {
      val vs = sc.parallelize((1L to 50L).map(i => (i, 0L)), parts)
      PregelRuntime.run[Long](vs,
        (ctx, id, v, msgs) => {
          if (ctx.superstep < 3) ctx.send(id * 7 % 50 + 1, 0, id, 0L)
          v + msgs.map(_.a).sum
        }, "toy", toy)
    }
    val expected = run(1)._1.collect().toMap
    for (parts <- Seq(1, 3, 7)) {
      val (out, stats) = run(parts)
      assert(stats.serial && stats.supersteps == 4)
      assert(out.getNumPartitions == sc.defaultParallelism, s"$parts input partitions")
      assert(out.partitioner.contains(new HashPartitioner(sc.defaultParallelism)))
      val where = out.mapPartitionsWithIndex((i, it) => it.map { case (id, _) => (id, i) }).collect()
      assert(where.forall { case (id, i) => out.partitioner.get.getPartition(id) == i })
      assert(out.collect().toMap == expected, s"$parts input partitions")
    }
  }

  test("a driver-path run takes two Spark jobs, however many supersteps it steps") {
    // One job places and counts the vertices, one fetches them; the 41
    // supersteps of the ping-pong below run on the driver.
    val sc = spark.sparkContext
    val group = s"driver-path-${System.nanoTime()}"
    sc.setJobGroup(group, "driver-path job count")
    val stats =
      try forced(serial = true) {
        val vs = sc.parallelize(Seq((1L, 0L), (2L, 0L)), 2)
        PregelRuntime.run[Long](vs,
          (ctx, id, v, msgs) => {
            if (v < 40) { ctx.send(3L - id, 0, v + 1, 0L); v + 1 } else v
          }, "ping-pong", toy)._2
      } finally sc.clearJobGroup()
    assert(stats.supersteps == 41)
    assert(sc.statusTracker.getJobIdsForGroup(group).length == 2)
  }

  test("vertex state stays put: only messages are shuffled, on defaultParallelism partitions") {
    forced(serial = false)(stateStaysPut())
  }

  private def stateStaysPut(): Unit = {
    import PregelRuntimeSpec.Blob
    val sc = spark.sparkContext
    val n = 128L
    val rnd = new scala.util.Random(7)
    // Incompressible 4 kB payloads, so that a shuffled state would show.
    val init = (1L to n).map { i =>
      val payload = new Array[Byte](4096)
      rnd.nextBytes(payload)
      (i, Blob(payload, 0L))
    }
    // Each vertex sends one Long to its successor in each of supersteps 0-4.
    def run(vs: RDD[(Long, Blob)]) =
      PregelRuntime.run[Blob](vs,
        (ctx, id, v, msgs) => {
          if (ctx.superstep < 5) ctx.send(id % n + 1, 0, id, 0L)
          v.copy(sum = v.sum + msgs.map(_.a).sum)
        }, "toy", toy)
    def finalStates(out: RDD[(Long, Blob)]) =
      out.collect().map { case (id, b) => id -> (b.payload.toSeq, b.sum) }.toMap

    val byRuntime = new HashPartitioner(sc.defaultParallelism)
    val (placed, stateCopy) = shuffleBytesOf {
      val p = sc.parallelize(init, 1).partitionBy(byRuntime).cache()
      p.count()
      p
    }
    val ((out, stats), runBytes) = shuffleBytesOf {
      val r = run(placed)
      r._1.count()
      r
    }
    assert(stats.supersteps == 6 && stats.messages == 5 * n)
    assert(runBytes < stateCopy,
      s"a run shuffled $runBytes bytes; one copy of the states is $stateCopy bytes")
    val expected = finalStates(out)
    assert(expected(1L)._2 == 5 * n)
    for (parts <- Seq(1, 7)) {
      val (o, _) = run(sc.parallelize(init, parts))
      assert(o.getNumPartitions == sc.defaultParallelism, s"$parts input partitions")
      assert(finalStates(o) == expected, s"$parts input partitions")
    }
    placed.unpersist(blocking = true)
  }
}

object PregelRuntimeSpec {
  /** A vertex state with a large payload that the program never changes. */
  final case class Blob(payload: Array[Byte], sum: Long)

  /** List-ranking toy state (top-level: Spark-serializable). */
  final case class S(value: Long, sum: Long, pred: Long) // pred 0 = null
}
