package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.dna.Datasets
import repro.exp.Tables

/** spark-submit entrypoints, one per evaluation table. */
object JobSpark {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table I — dataset statistics. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table1")
    println(Tables.printTable1(Tables.table1(spark)))
    spark.stop()
  }
}

/** Table II -- LR vs S-V for labeling unambiguous k-mers (round 1). */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table2")
    val pairs = Datasets.all.map(ds => Tables.labelingPair(spark, ds))
    println(Tables.printLabelingTable("Table II -- LR vs S-V, labeling unambiguous k-mers", pairs.map(_.round1)))
    spark.stop()
  }
}

/** Table III -- LR vs S-V for labeling contigs (round 2). */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table3")
    val pairs = Datasets.all.map(ds => Tables.labelingPair(spark, ds))
    println(Tables.printLabelingTable("Table III -- LR vs S-V, labeling contigs", pairs.map(_.round2)))
    spark.stop()
  }
}

/** Table IV -- quality comparison on HC-2 (reference-based). */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table4")
    println(Tables.printQualityTable("Table IV -- quality on HC-2",
      Tables.table4(spark), withReference = true))
    spark.stop()
  }
}

/** Table V -- quality comparison on HC-14 (reference-free). */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table5")
    println(Tables.printQualityTable("Table V -- quality on HC-14",
      Tables.table5(spark), withReference = false))
    spark.stop()
  }
}
