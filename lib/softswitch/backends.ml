let tiny_cache_config =
  {
    Ovs_like.emc_enabled = true;
    Ovs_like.emc_capacity = 4;
    Ovs_like.megaflow_capacity = 8;
  }

let all =
  [
    ("linear", Linear.create);
    ("ovs", fun p -> Ovs_like.create p);
    ("ovs-tiny-cache", fun p -> Ovs_like.create ~config:tiny_cache_config p);
    ("eswitch", Eswitch.create);
  ]

let find name = List.assoc_opt name all
