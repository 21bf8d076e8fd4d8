// Package spark simulates a Spark cluster executing a staged job: executor
// placement under node limits, the unified memory model with GC pressure and
// spills, RDD caching with eviction-driven recomputation for iterative jobs,
// Zipf partition skew, serializer and compression trade-offs, locality
// waits, and per-task scheduling overhead. It also exposes a "full" ~200
// parameter space (the effective ~30 knobs plus inert ones) so screening
// experiments can rediscover the paper's claim that only ~30 of Spark's ~200
// parameters significantly affect performance.
package spark

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/sysmodel/cluster"
	"repro/internal/tune"
	"repro/internal/workload"
)

// Parameter names of the Spark configuration space.
const (
	ExecutorMemMB   = "spark_executor_memory_mb"
	ExecutorCores   = "spark_executor_cores"
	NumExecutors    = "spark_num_executors"
	MemoryFraction  = "spark_memory_fraction"
	ShuffleParts    = "spark_sql_shuffle_partitions"
	Serializer      = "spark_serializer"
	ShuffleCompress = "spark_shuffle_compress"
	IOCodec         = "spark_io_compression_codec"
	RDDCompress     = "spark_rdd_compress"
	BroadcastMB     = "spark_broadcast_threshold_mb"
	LocalityWaitS   = "spark_locality_wait_s"
	DynamicAlloc    = "spark_dynamic_allocation"
	StorageLevel    = "spark_storage_level"
	SpeculationOn   = "spark_speculation"
)

// Space returns the effective Spark configuration space for cl.
func Space(cl *cluster.Cluster) *tune.Space {
	node := cl.Nodes[0]
	maxExec := len(cl.Nodes) * node.Cores
	return tune.NewSpace(effectiveParams(node, maxExec)...)
}

func effectiveParams(node cluster.Node, maxExec int) []tune.Param {
	return []tune.Param{
		tune.LogFloat(ExecutorMemMB, 512, node.RAMMB, 1024).WithUnit("MB").WithRestart().
			WithDoc("executor heap; undersizing spills and GC-thrashes, oversizing wastes executors", 10),
		tune.Int(ExecutorCores, 1, node.Cores, 1).WithRestart().
			WithDoc("concurrent tasks per executor", 8),
		tune.LogInt(NumExecutors, 1, maxExec, 2).WithRestart().
			WithDoc("executor count; stock defaults leave the cluster idle", 10),
		tune.Float(MemoryFraction, 0.3, 0.9, 0.6).WithRestart().
			WithDoc("fraction of heap for execution+storage", 6),
		tune.LogInt(ShuffleParts, 8, 4096, 200).
			WithDoc("shuffle partition count; too few skews, too many adds per-task overhead", 9),
		tune.Choice(Serializer, []string{"java", "kryo"}, "java").WithRestart().
			WithDoc("object serializer; kryo is ~2.5× cheaper and ~40% smaller", 7),
		tune.Bool(ShuffleCompress, true).WithRestart().
			WithDoc("compress shuffle blocks", 4),
		tune.Choice(IOCodec, []string{"lz4", "snappy", "zstd"}, "lz4").WithRestart().
			WithDoc("shuffle/RDD compression codec", 3),
		tune.Bool(RDDCompress, false).WithRestart().
			WithDoc("compress cached RDD blocks: fits more at CPU cost", 4),
		tune.LogFloat(BroadcastMB, 1, 512, 10).WithUnit("MB").WithRestart().
			WithDoc("broadcast-join threshold", 3),
		tune.Float(LocalityWaitS, 0, 10, 3).
			WithDoc("seconds to wait for data-local scheduling", 3),
		tune.Bool(DynamicAlloc, false).
			WithDoc("grow/shrink executors with stage demand", 4),
		tune.Choice(StorageLevel, []string{"memory_only", "memory_and_disk", "disk_only"}, "memory_only").WithRestart().
			WithDoc("persist level for cached RDDs", 5),
		tune.Bool(SpeculationOn, false).
			WithDoc("re-launch straggler tasks", 3),
	}
}

// FullSpace returns the ~200-parameter surface: the effective knobs plus
// inert configuration entries (logging, UI, history server, niche codecs…)
// that exist in real Spark deployments but do not move job performance.
// Experiment E5 screens this space to re-derive the "~30 of ~200 parameters
// matter" claim.
func FullSpace(cl *cluster.Cluster) *tune.Space {
	node := cl.Nodes[0]
	maxExec := len(cl.Nodes) * node.Cores
	params := effectiveParams(node, maxExec)
	// A second tier of mildly effective knobs brings the effective count to
	// roughly 30, matching the paper's claim.
	second := []tune.Param{
		tune.LogFloat("spark_shuffle_file_buffer_kb", 8, 1024, 32).WithDoc("shuffle write buffer", 3),
		tune.LogFloat("spark_reducer_max_size_in_flight_mb", 8, 256, 48).WithDoc("shuffle fetch window", 3),
		tune.Float("spark_memory_storage_fraction", 0.2, 0.8, 0.5).WithDoc("storage share of unified memory", 4),
		tune.LogInt("spark_default_parallelism", 8, 4096, 64).WithDoc("parallelism for non-SQL shuffles", 5),
		tune.Bool("spark_shuffle_spill_compress", true).WithDoc("compress spill files", 2),
		tune.LogFloat("spark_kryoserializer_buffer_max_mb", 8, 512, 64).WithDoc("kryo buffer cap", 2),
		tune.Int("spark_task_max_failures", 1, 16, 4).AsInert().WithDoc("task retry budget; no effect without faults", 2),
		tune.Bool("spark_broadcast_compress", true).WithDoc("compress broadcast blocks", 2),
		tune.LogFloat("spark_driver_memory_mb", 512, 8192, 1024).WithDoc("driver heap", 3),
		tune.Int("spark_shuffle_io_max_retries", 1, 10, 3).AsInert().WithDoc("shuffle fetch retries; no effect without faults", 2),
		tune.Float("spark_speculation_quantile", 0.5, 0.95, 0.75).WithDoc("speculation trigger quantile", 2),
		tune.Float("spark_speculation_multiplier", 1.1, 3, 1.5).WithDoc("speculation slowness multiplier", 2),
		tune.LogFloat("spark_scheduler_revive_interval_ms", 100, 5000, 1000).WithDoc("offer revival cadence", 1),
		tune.Bool("spark_unsafe_offheap", false).WithDoc("off-heap execution memory", 3),
		tune.LogFloat("spark_offheap_size_mb", 0.001, 8192, 0.001).WithDoc("off-heap size", 2),
		tune.Bool("spark_sql_adaptive", false).WithDoc("adaptive query execution", 4),
	}
	params = append(params, second...)
	// Inert tail: realistic names, zero performance effect.
	inertNames := []string{
		"spark_ui_enabled", "spark_ui_port", "spark_ui_retained_jobs", "spark_ui_retained_stages",
		"spark_eventlog_enabled", "spark_eventlog_dir_hash", "spark_history_fs_update_interval_s",
		"spark_metrics_conf_hash", "spark_metrics_namespace_id", "spark_app_name_hash",
		"spark_submit_deploy_mode_flag", "spark_yarn_queue_id", "spark_yarn_tags_hash",
		"spark_yarn_max_app_attempts", "spark_yarn_am_memory_overhead_mb", "spark_pyspark_python_version",
		"spark_r_command_version", "spark_jars_ivy_cache_id", "spark_files_overwrite",
		"spark_files_use_fetch_cache", "spark_local_dir_count", "spark_log_callsite_depth",
		"spark_log_level_tier", "spark_driver_log_persist", "spark_executor_log_rotation_size_mb",
		"spark_executor_log_rotation_num", "spark_cleaner_ttl_s", "spark_cleaner_reference_tracking",
		"spark_io_encryption_keygen_bits", "spark_network_crypto_handshake_v",
		"spark_authenticate_secret_bits", "spark_ssl_enabled_tiers", "spark_acls_enable",
		"spark_admin_acls_count", "spark_modify_acls_count", "spark_view_acls_count",
		"spark_blockmanager_port", "spark_driver_port", "spark_driver_host_hash",
		"spark_port_max_retries", "spark_rpc_num_retries", "spark_rpc_retry_wait_ms",
		"spark_rpc_ask_timeout_s", "spark_rpc_lookup_timeout_s", "spark_network_timeout_s",
		"spark_core_connection_ack_wait_s", "spark_storage_blockmanager_heartbeat_ms",
		"spark_executor_heartbeat_interval_ms", "spark_files_fetch_timeout_s",
		"spark_shuffle_registration_timeout_ms", "spark_shuffle_registration_max_attempts",
		"spark_stage_max_consecutive_attempts", "spark_task_reaper_enabled",
		"spark_task_reaper_poll_interval_ms", "spark_task_cpus_display",
		"spark_dynamic_min_executors_ui", "spark_dynamic_executor_idle_timeout_display_s",
		"spark_dynamic_cached_idle_timeout_display_s", "spark_externalshuffle_client_threads",
		"spark_sql_warehouse_dir_hash", "spark_sql_catalog_impl_flag", "spark_sql_ui_retained_executions",
		"spark_sql_thriftserver_ui_retained_sessions", "spark_sql_thriftserver_ui_retained_statements",
		"spark_sql_variable_substitute", "spark_sql_legacy_time_parser", "spark_sql_session_timezone_id",
		"spark_sql_crossjoin_warn", "spark_sql_debug_maxtostringfields",
		"spark_streaming_ui_retained_batches", "spark_streaming_stopgracefully",
		"spark_streaming_checkpoint_compress_flag", "spark_mesos_coarse_flag",
		"spark_mesos_labels_count", "spark_k8s_namespace_id", "spark_k8s_serviceaccount_id",
		"spark_k8s_label_count", "spark_k8s_annotation_count", "spark_k8s_image_pullpolicy_flag",
		"spark_hadoop_validate_output_specs", "spark_hadoop_cloneconf",
		"spark_buffer_write_chunk_kb", "spark_checkpoint_dir_hash", "spark_jars_packages_count",
		"spark_jars_excludes_count", "spark_repl_classdir_hash", "spark_graphx_pregel_checkpoint_interval",
		"spark_launcher_childprocess_timeout_s", "spark_memory_legacy_mode_display",
		"spark_sql_files_ignore_corrupt", "spark_sql_files_ignore_missing",
		"spark_sql_csv_parser_columnprune", "spark_sql_json_generator_ignorenull",
		"spark_sql_sources_partition_column_type_inference", "spark_sql_hive_verify_partition_path",
		"spark_sql_hive_metastore_version_flag", "spark_sql_hive_thriftserver_async",
		"spark_sql_orc_filterpushdown_display", "spark_sql_parquet_binary_as_string",
		"spark_sql_parquet_int96_as_timestamp", "spark_sql_parquet_writelegacyformat",
		"spark_sql_parquet_output_committer_hash", "spark_sql_sources_commitprotocol_hash",
		"spark_sql_statistics_size_autoupdate", "spark_sql_cbo_enabled_display",
		"spark_sql_cbo_joinreorder_display", "spark_sql_window_exec_buffer_spill_threshold_display",
		"spark_sql_sortmergejoin_exec_buffer_spill_threshold_display",
		"spark_sql_cartesian_product_exec_buffer_spill_threshold_display",
		"spark_sql_codegen_comments", "spark_sql_codegen_logging_maxlines",
		"spark_sql_broadcast_timeout_display_s", "spark_sql_redaction_options_regex_len",
		"spark_sql_redaction_string_regex_len", "spark_sql_optimizer_excludedrules_count",
		"spark_sql_optimizer_inset_conversion_threshold_display",
		"spark_sql_legacy_size_of_null", "spark_sql_legacy_replace_databricks_spark_avro",
		"spark_sql_legacy_setops_precedence", "spark_sql_legacy_integralDivide_returnBigint",
		"spark_sql_legacy_bucketed_table_scan_output_ordering", "spark_sql_legacy_parser_havingWithoutGroupBy",
		"spark_sql_legacy_json_allowEmptyString", "spark_sql_legacy_createEmptyCollectionUsingStringType",
		"spark_sql_legacy_allowUntypedScalaUDF", "spark_sql_legacy_sessionInitWithConfigDefaults",
		"spark_sql_legacy_doLooseUpcast", "spark_sql_legacy_ctePrecedencePolicy_flag",
		"spark_sql_legacy_timeParserPolicy_flag", "spark_sql_legacy_followThreeValuedLogicInArrayExists",
		"spark_sql_legacy_fromDayTimeString_enabled", "spark_sql_legacy_notReserveProperties",
		"spark_sql_legacy_addSingleFileInAddFile", "spark_sql_legacy_exponentLiteralAsDecimal",
		"spark_sql_legacy_allowNegativeScaleOfDecimal", "spark_sql_legacy_charVarcharAsString",
		"spark_sql_legacy_keepCommandOutputSchema", "spark_sql_legacy_allowAutoGeneratedAliasForView",
		"spark_sql_legacy_pathOptionBehavior", "spark_sql_legacy_extraOptionsBehavior_flag",
		"spark_sql_legacy_statisticalAggregate", "spark_sql_legacy_castComplexTypesToString",
		"spark_network_maxRemoteBlockSizeFetchToMem_display_mb", "spark_storage_replication_proactive_flag",
		"spark_storage_localDiskByExecutors_cacheSize_display", "spark_storage_memoryMapThreshold_display_kb",
		"spark_broadcast_blocksize_display_kb", "spark_broadcast_checksum_flag",
		"spark_rdd_parallelListingThreshold_display", "spark_rdd_limit_scaleUpFactor_display",
		"spark_serializer_objectStreamReset_display", "spark_closure_serializer_flag",
		"spark_kryo_registrationRequired_flag", "spark_kryo_unsafe_flag",
		"spark_kryo_referenceTracking_flag", "spark_locality_wait_node_display_s",
		"spark_locality_wait_process_display_s", "spark_locality_wait_rack_display_s",
		"spark_resultGetter_threads_display", "spark_dagscheduler_event_queue_capacity_display",
		"spark_listenerbus_eventqueue_capacity_display", "spark_extralisteners_count",
		"spark_python_worker_memory_display_mb", "spark_python_worker_reuse_flag",
		"spark_python_profile_flag", "spark_python_profile_dump_hash",
		"spark_executor_extraJavaOptions_len", "spark_driver_extraJavaOptions_len",
		"spark_executor_extraClassPath_len", "spark_driver_extraClassPath_len",
		"spark_executorEnv_count", "spark_redaction_regex_len",
	}
	for i, n := range inertNames {
		switch i % 3 {
		case 0:
			params = append(params, tune.Bool(n, i%2 == 0).AsInert().WithDoc("no performance effect", 0))
		case 1:
			params = append(params, tune.LogFloat(n, 1, 1024, 8).AsInert().WithDoc("no performance effect", 0))
		default:
			params = append(params, tune.Int(n, 0, 100, 10).AsInert().WithDoc("no performance effect", 0))
		}
	}
	return tune.NewSpace(params...)
}

// Spark is a simulated Spark deployment bound to one job. It implements
// tune.ConcurrentFidelityTarget through the embedded cluster.Runs, and
// tune.SpecProvider, tune.AdaptiveTarget and tune.Describer.
type Spark struct {
	*cluster.Runs
	cl  *cluster.Cluster
	job *workload.SparkJob
	s   *tune.Space
	// NoiseStd is the log-normal run-to-run noise (default 0.04).
	NoiseStd float64
}

// New returns a simulated Spark deployment running job on cl with the
// effective configuration space. Fidelity is the input fraction: cost
// scales ≈ linearly with f, but a scaled-down input may fit in executor
// memory where the full input spills, so very low fidelities can flatter
// undersized-memory configurations (the misleading case documented in
// DESIGN.md §11).
func New(cl *cluster.Cluster, job *workload.SparkJob, seed int64) *Spark {
	return newSpark(cl, job, Space(cl), seed)
}

// NewFull is New over the ~200-parameter FullSpace.
func NewFull(cl *cluster.Cluster, job *workload.SparkJob, seed int64) *Spark {
	return newSpark(cl, job, FullSpace(cl), seed)
}

func newSpark(cl *cluster.Cluster, job *workload.SparkJob, space *tune.Space, seed int64) *Spark {
	s := &Spark{cl: cl, job: job, s: space, NoiseStd: 0.04}
	s.Runs = cluster.NewRuns(seed, 6364136223846793005, func(rng *rand.Rand, f float64, cfg tune.Config) tune.Result {
		return s.simulate(s.job.Scaled(f), cfg, rng, false, 0)
	})
	return s
}

// Name implements tune.Target.
func (s *Spark) Name() string { return "spark/" + s.job.Name }

// Space implements tune.Target.
func (s *Spark) Space() *tune.Space { return s.s }

// Specs implements tune.SpecProvider.
func (s *Spark) Specs() map[string]float64 { return s.cl.Specs() }

// Cluster exposes the deployment for cost models and rules.
func (s *Spark) Cluster() *cluster.Cluster { return s.cl }

// Job exposes the job profile for cost models.
func (s *Spark) Job() *workload.SparkJob { return s.job }

// WorkloadFeatures implements tune.Describer.
func (s *Spark) WorkloadFeatures() map[string]float64 {
	iters := float64(s.job.Iterations)
	stream := 0.0
	if s.job.Streaming {
		stream = 1
	}
	return map[string]float64{
		"input_gb":   s.job.InputMB / 1024,
		"iterations": iters,
		"cache_gb":   s.job.CacheableMB / 1024,
		"shuffle_gb": s.job.ShuffleMB / 1024,
		"cpu_per_mb": s.job.CPUPerMB,
		"skew":       s.job.SkewTheta,
		"streaming":  stream,
	}
}

// Epochs implements tune.AdaptiveTarget: iterations (or batches) are the
// natural reconfiguration points; batch jobs get 4 synthetic epochs.
func (s *Spark) Epochs() int {
	switch {
	case s.job.Streaming:
		return s.job.Batches
	case s.job.Iterations > 0:
		return s.job.Iterations
	default:
		return 4
	}
}

// RunAdaptive implements tune.AdaptiveTarget: the controller may retarget
// runtime-adjustable knobs (shuffle partitions, locality wait, dynamic
// allocation) between iterations/batches; executor sizing changes are
// ignored mid-run, exactly as on a live cluster.
func (s *Spark) RunAdaptive(start tune.Config, ctrl tune.EpochController) tune.Result {
	var latencies []float64
	total := s.RunEpochs(start, ctrl, s.Epochs(), func(rng *rand.Rand, e int, cur, next tune.Config) (tune.Config, tune.Result) {
		// Only runtime-adjustable knobs take effect mid-run.
		cfg := cur.
			WithNative(ShuffleParts, next.Native(ShuffleParts)).
			WithNative(LocalityWaitS, next.Native(LocalityWaitS)).
			WithNative(DynamicAlloc, next.Native(DynamicAlloc)).
			WithNative(SpeculationOn, next.Native(SpeculationOn))
		res := s.simulate(s.job, cfg, rng, true, e)
		latencies = append(latencies, res.Time)
		return cfg, res
	})
	if s.job.Streaming && len(latencies) > 0 {
		misses := 0.0
		for _, l := range latencies {
			if l > s.job.BatchIntervalS {
				misses++
			}
		}
		sort.Float64s(latencies)
		total.Metrics["p95_batch_latency_s"] = latencies[int(0.95*float64(len(latencies)-1))]
		total.Metrics["max_batch_latency_s"] = latencies[len(latencies)-1]
		total.Metrics["mean_batch_latency_s"] = total.Time / float64(len(latencies))
		total.Metrics["deadline_misses"] = misses
	}
	return total
}

// simulate executes job under cfg. With single set it runs only the
// epoch'th iteration/batch (adaptive mode); otherwise the whole job.
func (s *Spark) simulate(job *workload.SparkJob, cfg tune.Config, rng *rand.Rand, single bool, epoch int) tune.Result {
	cl := s.cl
	node := cl.Nodes[0]
	share := cl.EffectiveShare(rng)
	m := make(map[string]float64, 20)

	execMem := cfg.Float(ExecutorMemMB)
	execCores := cfg.Int(ExecutorCores)
	numExec := cfg.Int(NumExecutors)
	memFrac := cfg.Float(MemoryFraction)
	parts := cfg.Int(ShuffleParts)
	serializer := cfg.Str(Serializer)
	shufCompress := cfg.Bool(ShuffleCompress)
	iocodec := cfg.Str(IOCodec)
	rddCompress := cfg.Bool(RDDCompress)
	localityWait := cfg.Float(LocalityWaitS)
	dynAlloc := cfg.Bool(DynamicAlloc)
	storage := cfg.Str(StorageLevel)
	spec := cfg.Bool(SpeculationOn)

	// Second-tier knobs exist only in the FullSpace; read them with their
	// defaults so the effective space behaves identically.
	optF := func(name string, def float64) float64 {
		if _, ok := cfg.Space().Param(name); ok {
			return cfg.Native(name)
		}
		return def
	}
	optB := func(name string, def bool) bool {
		if _, ok := cfg.Space().Param(name); ok {
			return cfg.Bool(name)
		}
		return def
	}
	storageFrac := optF("spark_memory_storage_fraction", 0.5)
	fileBufKB := optF("spark_shuffle_file_buffer_kb", 32)
	inFlightMB := optF("spark_reducer_max_size_in_flight_mb", 48)
	spillCompress := optB("spark_shuffle_spill_compress", true)
	kryoBufMB := optF("spark_kryoserializer_buffer_max_mb", 64)
	broadcastCompress := optB("spark_broadcast_compress", true)
	driverMemMB := optF("spark_driver_memory_mb", 1024)
	reviveMS := optF("spark_scheduler_revive_interval_ms", 1000)
	offheap := optB("spark_unsafe_offheap", false)
	offheapMB := optF("spark_offheap_size_mb", 0)
	sqlAdaptive := optB("spark_sql_adaptive", false)
	specQuantile := optF("spark_speculation_quantile", 0.75)
	specMult := optF("spark_speculation_multiplier", 1.5)
	defaultPar := int(optF("spark_default_parallelism", 0))

	// --- placement ------------------------------------------------------------
	perNodeByMem := int(node.RAMMB * 0.9 / execMem)
	perNodeByCores := node.Cores / execCores
	perNode := perNodeByMem
	if perNodeByCores < perNode {
		perNode = perNodeByCores
	}
	if perNode < 1 {
		return tune.Result{
			Time:       90 * math.Exp(rng.NormFloat64()*0.1),
			Failed:     true,
			FailReason: fmt.Sprintf("executor does not fit: %.0f MB × %d cores on %.0f MB/%d-core nodes", execMem, execCores, node.RAMMB, node.Cores),
			Metrics:    map[string]float64{"placement_failed": 1},
		}
	}
	maxExec := perNode * len(cl.Nodes)
	placed := numExec
	if placed > maxExec {
		placed = maxExec
	}
	if dynAlloc {
		// Dynamic allocation grows to demand: effectively the max the
		// cluster can host, with a ramp-up penalty on the first epoch.
		placed = maxExec
	}
	slots := placed * execCores

	// --- memory model -----------------------------------------------------------
	unified := execMem * memFrac
	if offheap && offheapMB > 1 {
		unified += offheapMB * 0.8 // off-heap extends execution memory
	}
	execShare := unified * (1 - storageFrac)
	storeShare := unified * storageFrac
	memPerTask := execShare / float64(execCores)

	serCPU := 0.010 // s/MB at 1GHz for java serializer
	serRatio := 1.0
	if serializer == "kryo" {
		serCPU = 0.004
		serRatio = 0.60
		if kryoBufMB < 32 {
			serCPU *= 1.25 // undersized kryo buffers force copies
		}
	}
	codecRatio, codecCPU := 1.0, 0.0
	if shufCompress {
		switch iocodec {
		case "snappy":
			codecRatio, codecCPU = 0.50, 0.004
		case "zstd":
			codecRatio, codecCPU = 0.38, 0.010
		default: // lz4
			codecRatio, codecCPU = 0.55, 0.003
		}
	}

	clock := node.ClockGHz
	diskMBps := node.DiskMBps * share
	netBW := math.Min(cl.BisectionMBps*share, float64(placed)*node.NetMBps*share/2)
	// Small shuffle-fetch windows leave the network underutilized.
	netBW *= math.Min(1, 0.80+0.20*inFlightMB/48)
	if !broadcastCompress {
		netBW *= 0.985 // broadcast variables crowd the fabric slightly
	}
	if netBW < 1 {
		netBW = 1
	}
	// Small shuffle write buffers cost extra I/O syscalls.
	spillIOFactor := 1 + 0.15*math.Max(0, 1-fileBufKB/32)
	if spillCompress {
		spillIOFactor *= 0.65
	}
	// Driver-side scheduling overhead per task: slow revival and an
	// undersized driver heap both stretch task dispatch.
	schedOverhead := 0.01 * (0.5 + reviveMS/2000)
	if driverMemMB < 768 {
		schedOverhead *= 1.5
	}

	// --- caching ---------------------------------------------------------------
	cacheRatio := 0.0 // fraction of the cacheable set held in memory
	if job.Iterations > 0 && job.CacheableMB > 0 {
		cachedSize := job.CacheableMB * serRatio
		if rddCompress {
			cachedSize *= 0.55
		}
		capacity := storeShare * float64(placed)
		switch storage {
		case "disk_only":
			cacheRatio = 0 // handled as disk reads below
		default:
			cacheRatio = math.Min(1, capacity/cachedSize)
		}
	}

	// A task runs away from its data with probability nonLocalP and then
	// reads its input at remoteMBps.
	nonLocalP := math.Max(0.02, 0.25-0.06*localityWait)
	remoteMBps := node.NetMBps * share

	skew := job.SkewTheta
	if sqlAdaptive {
		skew *= 0.5 // AQE re-splits skewed partitions
	}
	// Every stage of a run splits by the same skew, and all of them (bar an
	// input stage under spark_default_parallelism) into the same number of
	// tasks: shares holds workload.ZipfShares(len(shares), skew) from one stage to the
	// next. sorted is cluster.SortedAt's scratch, durations every stage's.
	var shares, sorted, durations []float64
	// base holds the task durations of the stage under baseKey up to the
	// first random draw, and baseSpill the MB it spilled: an iterative job
	// repeats its second stage to the end, so those stages redo only the
	// draws. Results stay bit for bit only while the draws keep their order
	// and every expression stays as written: arm64 may fuse x*y+z (DESIGN §5).
	var base []float64
	var baseKey stageKey
	var baseSpill float64

	// stageTime computes one pass over dataMB with shuffleMB shuffled.
	// Input (non-cache) stages parallelize by spark_default_parallelism when
	// it is set higher than the shuffle partitioning.
	stageTime := func(dataMB, shuffleMB float64, readFromCache bool) (float64, float64) {
		tasks := parts
		if !readFromCache && defaultPar > tasks {
			tasks = defaultPar
		}
		if tasks < 1 {
			tasks = 1
		}
		if len(shares) != tasks {
			shares = workload.ZipfShares(tasks, skew)
		}
		if key := (stageKey{dataMB, shuffleMB, readFromCache, tasks}); key != baseKey {
			baseKey, baseSpill = key, 0
			base = slices.Grow(base[:0], tasks)[:tasks]
			for i := 0; i < tasks; i++ {
				dMB := dataMB * shares[i]
				sMB := shuffleMB * shares[i]
				// Compute.
				cpu := dMB * job.CPUPerMB / clock
				// Serialization of shuffled data (write + read side).
				cpu += sMB * (serCPU + codecCPU) * 2 / clock
				// Working set vs execution memory: spill or GC pressure.
				working := sMB * serRatio
				if working > memPerTask {
					spill := working - memPerTask
					cpu += spill * 0.002 / clock
					baseSpill += spill
					base[i] = cpu + spill*2*spillIOFactor/(diskMBps/float64(perNode*execCores))
				} else {
					base[i] = cpu
				}
				util := working / math.Max(memPerTask, 1)
				if util > 0.7 {
					g := 0.08 + 0.5*math.Min(1, (util-0.7)/0.3)
					base[i] *= 1 + g
				}
				// Input read: from cache, local disk, or remote.
				if readFromCache {
					missing := dMB * (1 - cacheRatio)
					switch storage {
					case "memory_and_disk", "disk_only":
						base[i] += missing / (diskMBps / float64(perNode*execCores))
					default:
						// memory_only: evicted partitions are recomputed.
						base[i] += missing * job.CPUPerMB * 1.5 / clock
					}
				} else {
					base[i] += dMB / (diskMBps / float64(perNode*execCores))
				}
			}
		}
		durations = append(durations[:0], base...)
		for i := 0; i < tasks; i++ {
			// Non-local tasks pay a network read after the locality wait
			// expires; generous waits improve locality at idle cost.
			if rng.Float64() < nonLocalP {
				dMB := dataMB * shares[i]
				durations[i] += localityWait*0.3 + dMB/remoteMBps
			}
			// Scheduling overhead per task.
			durations[i] += schedOverhead
			// Straggler noise.
			f := math.Exp(rng.NormFloat64() * 0.10)
			if rng.Float64() < 0.02 {
				f *= 2 + 2*rng.Float64()
			}
			durations[i] *= f
		}
		if spec {
			sorted = append(sorted[:0], durations...)
			med := cluster.SortedAt(sorted, min(max(int(specQuantile*float64(tasks-1)), 0), tasks-1))
			for i, d := range durations {
				if d > specMult*med {
					b := med * 1.35
					if b < d {
						durations[i] = b
					}
				}
			}
		}
		makespan := cluster.ListSchedule(durations, slots, 0, nil)
		// Shuffle transfer over the fabric, overlapped ~50% with compute.
		shufNet := shuffleMB * serRatio * codecRatio / netBW
		return makespan + 0.5*shufNet, baseSpill
	}

	var elapsed, totalSpill float64
	oneIteration := func(first bool) {
		readCache := !first && job.Iterations > 0
		t, sp := stageTime(effData(job), job.ShuffleMB, readCache)
		elapsed += t
		totalSpill += sp
	}

	switch {
	case job.Streaming:
		// One batch per simulate call in adaptive mode; standalone Run
		// executes all batches.
		batches := job.Batches
		if single {
			batches = 1
		}
		var lat []float64
		for b := 0; b < batches; b++ {
			idx := b
			if single {
				idx = epoch
			}
			grow := 1 + job.DriftPerBatch*float64(idx)
			t, sp := stageTime(job.InputMB*grow, job.ShuffleMB*grow, false)
			t += 0.3 // batch scheduling overhead
			elapsed += t
			totalSpill += sp
			lat = append(lat, t)
		}
		if !single {
			sort.Float64s(lat)
			m["p95_batch_latency_s"] = lat[int(0.95*float64(len(lat)-1))]
			m["mean_batch_latency_s"] = elapsed / float64(batches)
			misses := 0.0
			for _, l := range lat {
				if l > job.BatchIntervalS {
					misses++
				}
			}
			m["deadline_misses"] = misses
		}
	case job.Iterations > 0:
		if single {
			oneIteration(epoch == 0)
		} else {
			for it := 0; it < job.Iterations; it++ {
				oneIteration(it == 0)
			}
		}
	default:
		// Batch job: input stage + shuffle stage.
		t1, sp1 := stageTime(job.InputMB, job.ShuffleMB, false)
		t2, sp2 := stageTime(job.ShuffleMB, 0, false)
		elapsed = t1 + t2
		totalSpill = sp1 + sp2
	}

	if dynAlloc {
		elapsed += 2.5 // executor ramp-up
	}
	elapsed += 1.5 // driver/job setup
	elapsed *= math.Exp(rng.NormFloat64() * s.NoiseStd)

	m["epoch_time"] = elapsed
	m["executors_placed"] = float64(placed)
	m["task_slots"] = float64(slots)
	m["shuffle_partitions"] = float64(parts)
	m["cache_hit_fraction"] = cacheRatio
	m["spilled_mb"] = totalSpill
	m["mem_per_task_mb"] = memPerTask
	m["net_bw_mbps"] = netBW
	m["serializer_kryo"] = boolMetric(serializer == "kryo")
	m["gc_pressure"] = math.Min(1, totalSpill/(job.InputMB+1)+0.1)

	// Dollar cost bills the nodes the placement actually occupies, not the
	// whole cluster: fewer/smaller executors pack onto fewer nodes, so a
	// cost-aware tuner can trade latency against footprint instead of seeing
	// cost as a fixed multiple of elapsed time.
	nodesUsed := math.Ceil(float64(placed) / float64(perNode))
	m["nodes_used"] = nodesUsed
	return tune.Result{Time: elapsed, Cost: cl.PricePerNodeHour * nodesUsed * elapsed / 3600, Metrics: m}
}

// effData returns the per-iteration data volume processed.
func effData(j *workload.SparkJob) float64 {
	if j.Iterations > 0 {
		return j.CacheableMB
	}
	return j.InputMB
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// stageKey is what a stage's task durations before the random draws depend
// on within one run.
type stageKey struct {
	dataMB, shuffleMB float64
	readFromCache     bool
	tasks             int
}

// Interface conformance checks.
var (
	_ tune.Target                   = (*Spark)(nil)
	_ tune.SpecProvider             = (*Spark)(nil)
	_ tune.AdaptiveTarget           = (*Spark)(nil)
	_ tune.Describer                = (*Spark)(nil)
	_ tune.ConcurrentFidelityTarget = (*Spark)(nil)
)
