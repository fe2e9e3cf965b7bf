package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.gmm._
import repro.core.nn._
import repro.data.{NormalizedSynth, Store}

/** The three training algorithms of the paper, in the order the report
  * lists them.
  */
sealed abstract class Algo(val tag: String)

object Algo {
  case object M extends Algo("M")
  case object S extends Algo("S")
  case object F extends Algo("F")
  val all: Seq[Algo] = Seq(M, S, F)
}

/** Base tables of one workload, as read back from the [[Store]]. */
final case class Tables(s: DataFrame, rs: Seq[DataFrame], names: Seq[String])

/** One benchmark workload: its dimensions, its input generator, and the
  * public entry points of the program it drives. The untraced run calls
  * only `train`; the traced run calls the per-iteration functions
  * (`denormStep`, `fStep`) one at a time, plus decode-only passes.
  */
abstract class Workload {
  type Model
  /** What F collects from the attribute tables before its first iteration. */
  type RSide

  val name: String
  /** Iterations (GMM) or epochs (NN) of one fit. */
  val iters: Int
  /** nS at the benchmark's scale, nR of each attribute table, dS and dRs. */
  val nS: Long
  val nRs: Seq[Long]
  val dS: Int
  val dRs: Seq[Int]
  /** Rows of the `Mat.mv`/`addOuter` microbench: nh for NN, the width
    * itself for GMM (square precision and scatter matrices).
    */
  def kernelRows(width: Int): Int

  def d: Int = dS + dRs.sum

  /** S and R1..Rq, deterministic in `seed`. */
  def generate(spark: SparkSession, seed: Long): (DataFrame, Seq[DataFrame])

  def init(seed: Long): Model

  /** One call of the algorithm's public `train`; returns the objective
    * entering each iteration.
    */
  def train(algo: Algo, store: Store, tb: Tables, init: Model): Seq[Double]

  /** The lazy join S-* recomputes and M-* materializes. */
  def denormJoin(tb: Tables): DataFrame
  def denormStep(t: DataFrame, m: Model): (Model, Double)
  def collectR(tb: Tables): RSide
  def fStep(tb: Tables, r: RSide, m: Model): (Model, Double)

  /** Decode-only pass over the columns F reads from S. */
  def scanF(tb: Tables): Long
  /** Decode-only pass over the columns M/S read from T or the lazy join. */
  def scanDenorm(t: DataFrame): Long

  /** The benches' existing agreement bound on final objectives. */
  def agree(x: Double, ref: Double): Boolean

  /** Write freshly generated tables under `tag`. */
  def write(spark: SparkSession, store: Store, seed: Long, tag: String): Tables = {
    val (s0, rs0) = generate(spark, seed)
    val sName = s"$tag-s"
    val rNames = rs0.indices.map(i => s"$tag-r${i + 1}")
    val s = store.write(sName, s0)
    val rs = rs0.zip(rNames).map { case (r, n) => store.write(n, r) }
    Tables(s, rs, sName +: rNames)
  }
}

/** Shared decode-only passes: read every row through the same typed
  * encoder the algorithm uses and fold its widths, so nothing is skipped.
  */
private object Decode {
  def gmmT(t: DataFrame): Long = {
    import t.sparkSession.implicits._
    t.select("xs", "xr").as[(Array[Double], Array[Double])]
      .mapPartitions(it => Iterator.single(it.map { case (a, b) => (a.length + b.length).toLong }.sum))
      .reduce(_ + _)
  }
}

/** GMM over a binary join S ⋈ R (paper Table VI row `dims`). */
final class GmmBinary(val name: String, dims: NormalizedSynth.DatasetDims, scale: Double,
                      val iters: Int) extends Workload {
  type Model = GmmModel
  type RSide = Array[(Long, Array[Double])]
  val K = 5
  val nS: Long = (dims.nS * scale).toLong
  val nRs: Seq[Long] = Seq(dims.nR)
  val dS: Int = dims.dS
  val dRs: Seq[Int] = Seq(dims.dR)
  def kernelRows(width: Int): Int = width

  def generate(spark: SparkSession, seed: Long): (DataFrame, Seq[DataFrame]) = {
    val (s, r) = NormalizedSynth.surrogate(spark, dims, seed, scale)
    (s, Seq(r))
  }
  def init(seed: Long): GmmModel = GmmModel.init(K, d, seed)

  def train(algo: Algo, store: Store, tb: Tables, init: GmmModel): Seq[Double] = (algo match {
    case Algo.M => MGmm.train(store, tb.s, tb.rs.head, init, iters, "T")
    case Algo.S => SGmm.train(tb.s, tb.rs.head, init, iters)
    case Algo.F => FGmm.train(tb.s, tb.rs.head, init, iters)
  }).logliks

  def denormJoin(tb: Tables): DataFrame = DenormGmm.joined(tb.s, tb.rs.head)
  def denormStep(t: DataFrame, m: GmmModel): (GmmModel, Double) = DenormGmm.emStep(t, m)
  def collectR(tb: Tables): RSide = {
    import tb.s.sparkSession.implicits._
    tb.rs.head.select("rid", "xr").as[(Long, Array[Double])].collect()
  }
  def fStep(tb: Tables, r: RSide, m: GmmModel): (GmmModel, Double) =
    FGmm.emStep(tb.s, r, m, dS, dRs.head)

  def scanF(tb: Tables): Long = {
    import tb.s.sparkSession.implicits._
    tb.s.select("fk", "xs").as[(Long, Array[Double])]
      .mapPartitions(it => Iterator.single(it.map(_._2.length.toLong).sum))
      .reduce(_ + _)
  }
  def scanDenorm(t: DataFrame): Long = Decode.gmmT(t)

  def agree(x: Double, ref: Double): Boolean = math.abs(x - ref) / math.abs(ref) < 1e-6
}

/** NN (nh = 50, sigmoid) over a binary join (paper Table VII row `dims`). */
final class NnBinary(val name: String, dims: NormalizedSynth.DatasetDims, scale: Double,
                     val iters: Int) extends Workload {
  type Model = NnModel
  type RSide = Array[(Long, Array[Double])]
  val Nh = 50
  val Lr = 0.01
  val nS: Long = (dims.nS * scale).toLong
  val nRs: Seq[Long] = Seq(dims.nR)
  val dS: Int = dims.dS
  val dRs: Seq[Int] = Seq(dims.dR)
  def kernelRows(width: Int): Int = Nh

  def generate(spark: SparkSession, seed: Long): (DataFrame, Seq[DataFrame]) = {
    val (s, r) = NormalizedSynth.surrogate(spark, dims, seed, scale, withTarget = true)
    (s, Seq(r))
  }
  def init(seed: Long): NnModel = NnModel.init(Nh, d, seed)

  def train(algo: Algo, store: Store, tb: Tables, init: NnModel): Seq[Double] = (algo match {
    case Algo.M => MNn.train(store, tb.s, tb.rs.head, init, iters, Lr, "T")
    case Algo.S => SNn.train(tb.s, tb.rs.head, init, iters, Lr)
    case Algo.F => FNn.train(tb.s, tb.rs.head, init, iters, Lr)
  }).losses

  def denormJoin(tb: Tables): DataFrame = DenormNn.joined(tb.s, tb.rs.head)
  def denormStep(t: DataFrame, m: NnModel): (NnModel, Double) = DenormNn.epoch(t, m, Lr)
  def collectR(tb: Tables): RSide = {
    import tb.s.sparkSession.implicits._
    tb.rs.head.select("rid", "xr").as[(Long, Array[Double])].collect()
  }
  def fStep(tb: Tables, r: RSide, m: NnModel): (NnModel, Double) = FNn.epoch(tb.s, r, m, Lr, dS)

  def scanF(tb: Tables): Long = {
    import tb.s.sparkSession.implicits._
    tb.s.select("fk", "xs", "y").as[(Long, Array[Double], Double)]
      .mapPartitions(it => Iterator.single(it.map(_._2.length.toLong).sum))
      .reduce(_ + _)
  }
  def scanDenorm(t: DataFrame): Long = {
    import t.sparkSession.implicits._
    t.select("xs", "xr", "y").as[(Array[Double], Array[Double], Double)]
      .mapPartitions(it => Iterator.single(it.map { case (a, b, _) => (a.length + b.length).toLong }.sum))
      .reduce(_ + _)
  }

  def agree(x: Double, ref: Double): Boolean =
    math.abs(x - ref) / math.max(1e-12, math.abs(ref)) < 1e-6
}

object Workloads {
  /** nS is the paper's nS times this; every other dimension is the paper's. */
  val Scale = 0.1

  private def dims(table: Seq[NormalizedSynth.DatasetDims], prefix: String) =
    table.find(_.name.startsWith(prefix)).getOrElse(sys.error(s"no dataset $prefix"))

  def byName(name: String, iters: Int): Workload = name match {
    case "gmm-large-r" => new GmmBinary(name, dims(NormalizedSynth.table4NotSparse, "Expedia2"), Scale, iters)
    case "nn-wide"     => new NnBinary(name, dims(NormalizedSynth.table4Sparse, "Walmart"), Scale, iters)
    case other         => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
