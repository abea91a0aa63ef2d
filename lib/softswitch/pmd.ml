open Simnet

type config = {
  ghz : float;
  cores : int;
  batch_size : int;
  per_batch_cycles : int;
  per_packet_io_cycles : int;
  rx_ring : int;
}

let default_config =
  {
    ghz = 2.6;
    cores = 1;
    batch_size = 32;
    per_batch_cycles = 600;
    per_packet_io_cycles = 50;
    rx_ring = 4096;
  }

let ns_of_cycles cfg cycles =
  let hz = cfg.ghz *. float_of_int cfg.cores in
  Int.max 1 (int_of_float (ceil (float_of_int cycles /. hz)))

let packet_service_cycles cfg ~dataplane_cycles =
  dataplane_cycles + cfg.per_packet_io_cycles
  + ((cfg.per_batch_cycles + cfg.batch_size - 1) / cfg.batch_size)

type t = {
  engine : Engine.t;
  cfg : config;
  mutable next_free : Sim_time.t;
  mutable outstanding : int;
  mutable processed : int;
  mutable busy_ns : int;
}

let create engine ?(config = default_config) () =
  if config.ghz <= 0.0 || config.cores <= 0 then invalid_arg "Pmd.create";
  if config.batch_size <= 0 then invalid_arg "Pmd.create: batch_size <= 0";
  {
    engine;
    cfg = config;
    next_free = Sim_time.zero;
    outstanding = 0;
    processed = 0;
    busy_ns = 0;
  }

let admit t ~cycles =
  if t.outstanding >= t.cfg.rx_ring then -1
  else begin
    let now = Engine.now t.engine in
    let service = ns_of_cycles t.cfg (packet_service_cycles t.cfg ~dataplane_cycles:cycles) in
    let start = Sim_time.max now t.next_free in
    let finish = Sim_time.add start service in
    t.next_free <- finish;
    t.outstanding <- t.outstanding + 1;
    t.busy_ns <- t.busy_ns + service;
    Sim_time.to_ns finish
  end

let complete t =
  t.outstanding <- t.outstanding - 1;
  t.processed <- t.processed + 1

let processed t = t.processed
let busy_ns t = t.busy_ns
let config t = t.cfg
